open Regionsel_isa
module Simulator = Regionsel_engine.Simulator
module Context = Regionsel_engine.Context

exception Hard_corruption of string

type degraded = { section : string; reason : string }
type report = { restored : string list; degraded : degraded list; skipped : int }

let clean r = r.degraded = []

(* Section payloads are streams of ints, each as two 32-bit fields, low
   word first. *)
let payload_ints bytes ~pos ~len =
  if len mod 8 <> 0 then failwith "payload is not a whole number of ints";
  let c = Wire.cursor bytes ~pos ~len in
  Array.init (len / 8) (fun _ ->
      let lo = Wire.u32 c "int" in
      let hi = Wire.u32 c "int" in
      Wire.int63 ~hi ~lo)

let magic = "RSNP"
let format_version = 1
let section_version = 1

(* Stable tag table.  New sections append new tags; a reader skips tags it
   does not know, so adding one never breaks older snapshots. *)
let tags =
  [
    (1, "interp");
    (2, "stats");
    (3, "edges");
    (4, "icache");
    (5, "counters");
    (6, "gauges");
    (7, "cache");
    (8, "blacklist");
    (9, "policy");
    (10, "telemetry");
    (11, "loop");
  ]

let tag_of_section name =
  match List.find_opt (fun (_, n) -> String.equal n name) tags with
  | Some (t, _) -> t
  | None -> invalid_arg ("Persist: section has no tag: " ^ name)

let name_of_tag tag = try List.assoc tag tags with Not_found -> Printf.sprintf "tag-%d" tag

(* A section's checksum covers its 12-byte frame header (tag, version,
   payload length) and the payload.  Covering the header matters: a bit
   flip in the tag would otherwise turn a known section into a
   silently-skipped "unknown" one — data loss with a clean report. *)
let frame_crc hdr ~hpos payload ~ppos ~plen =
  Wire.crc32 ~crc:(Wire.crc32 hdr ~pos:hpos ~len:12) payload ~pos:ppos ~len:plen

let encode ~seed ~policy (internals : Simulator.internals) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  Wire.bu32 buf format_version;
  Wire.bu32 buf (Program.n_blocks internals.Simulator.int_ctx.Context.program);
  Wire.bu32 buf (Wire.seed_lo seed);
  Wire.bu32 buf (Wire.seed_hi seed);
  Wire.bu32 buf (String.length policy);
  Buffer.add_string buf policy;
  (* The section count makes a truncation at an exact frame boundary
     detectable: without it, a snapshot cut between frames parses as a
     shorter-but-valid file and the missing tail would re-warm silently. *)
  Wire.bu32 buf (List.length internals.Simulator.int_sections);
  let header = Buffer.to_bytes buf in
  Wire.bu32 buf (Wire.crc32 header ~pos:0 ~len:(Bytes.length header));
  List.iter
    (fun (s : Simulator.section) ->
      let w = Buffer.create 256 in
      s.Simulator.sec_save (fun v ->
          Wire.bu32 w (Wire.lo_word v);
          Wire.bu32 w (Wire.hi_word v));
      let payload = Buffer.to_bytes w in
      let plen = Bytes.length payload in
      let hdr = Bytes.create 12 in
      Wire.set_u32 hdr 0 (tag_of_section s.Simulator.sec_name);
      Wire.set_u32 hdr 4 section_version;
      Wire.set_u32 hdr 8 plen;
      Buffer.add_bytes buf hdr;
      Wire.bu32 buf (frame_crc hdr ~hpos:0 payload ~ppos:0 ~plen);
      Buffer.add_bytes buf payload)
    internals.Simulator.int_sections;
  Buffer.to_bytes buf

(* The header, read through [c]: identity checks against this run, then
   the declared section count.  Every failure is [Failure]; the caller
   turns it into [Hard_corruption]. *)
let read_header bytes c ~seed ~policy ~run_blocks =
  if not (String.equal (Bytes.sub_string bytes (Wire.skip c "magic" 4) 4) magic) then
    failwith "bad magic";
  let ver = Wire.u32 c "format version" in
  if ver <> format_version then
    failwith
      (Printf.sprintf "unsupported format version %d (this build reads %d)" ver format_version);
  let n_blocks = Wire.u32 c "block count" in
  let lo = Wire.u32 c "seed" in
  let hi = Wire.u32 c "seed" in
  let snap_policy = Wire.string c "policy name" ~limit:max_int in
  let n_sections = Wire.u32 c "section count" in
  let header_end = Wire.skip c "header checksum" 0 in
  if Wire.u32 c "header checksum" <> Wire.crc32 bytes ~pos:0 ~len:header_end then
    failwith "header checksum mismatch";
  if n_blocks <> run_blocks then
    failwith
      (Printf.sprintf "snapshot is for a different program (%d blocks, this run has %d)"
         n_blocks run_blocks);
  let snap_seed = Wire.seed_of_words ~hi ~lo in
  if not (Int64.equal snap_seed seed) then
    failwith (Printf.sprintf "snapshot seed %Ld does not match this run's seed %Ld" snap_seed seed);
  if not (String.equal snap_policy policy) then
    failwith
      (Printf.sprintf "snapshot policy %S does not match this run's policy %S" snap_policy policy);
  n_sections

let decode_into bytes ~seed ~policy (internals : Simulator.internals) =
  let c = Wire.cursor bytes ~pos:0 ~len:(Bytes.length bytes) in
  let run_blocks = Program.n_blocks internals.Simulator.int_ctx.Context.program in
  let n_sections =
    try read_header bytes c ~seed ~policy ~run_blocks
    with Failure msg -> raise (Hard_corruption msg)
  in
  let sections = Array.of_list internals.Simulator.int_sections in
  let restored = ref [] and degraded = ref [] and skipped = ref 0 in
  let drop section reason = degraded := { section; reason } :: !degraded in
  (* Each frame is [tag | version | payload length | checksum | payload].
     A frame that cannot be read to its end degrades and ends the walk.
     Sections apply once each, in load order ("loop" resolves against the
     restored cache, the policy checks the restored gauges): [last] is
     the load-order index of the last section handled, and a frame for a
     section at or before it, a repeat or one moved late, is not applied.
     Returns the number of frames seen. *)
  let rec frames seen last =
    if Wire.remaining c = 0 then seen
    else
      match Wire.skip c "section header" 16 with
      | exception Failure reason ->
        drop "<frame>" reason;
        seen + 1
      | hpos -> (
        let h = Wire.cursor bytes ~pos:hpos ~len:16 in
        let tag = Wire.u32 h "tag" in
        let sver = Wire.u32 h "section version" in
        let plen = Wire.u32 h "payload length" in
        let pcrc = Wire.u32 h "checksum" in
        let name = name_of_tag tag in
        match Wire.skip c "payload" plen with
        | exception Failure reason ->
          drop name reason;
          seen + 1
        | ppos when pcrc <> frame_crc bytes ~hpos bytes ~ppos ~plen ->
          drop name "checksum mismatch";
          frames (seen + 1) last
        | ppos -> (
          match
            Array.find_index (fun (s : Simulator.section) -> s.Simulator.sec_name = name) sections
          with
          | None ->
            (* Unknown tag, or a section this run has no home for (e.g. a
               telemetry section restored into a run without a sink).
               The checksum above already vouched for the frame, so this
               is version skew or configuration skew, not corruption. *)
            incr skipped;
            frames (seen + 1) last
          | Some i when i <= last ->
            drop name "repeated or out-of-order frame";
            frames (seen + 1) last
          | Some i ->
            (if sver <> section_version then
               drop name (Printf.sprintf "unsupported section version %d" sver)
             else
               (* Decode, then commit: a section whose stream fails to
                  parse, or leaves ints unread, is never applied. *)
               let load = sections.(i).Simulator.sec_load in
               match Snap.decode (payload_ints bytes ~pos:ppos ~len:plen) load with
               | commit ->
                 commit ();
                 restored := name :: !restored
               | exception (Failure msg | Invalid_argument msg) -> drop name msg);
            frames (seen + 1) i))
  in
  let seen = frames 0 (-1) in
  if seen < n_sections then
    drop "<file>" (Printf.sprintf "snapshot ends after %d of %d sections" seen n_sections);
  { restored = List.rev !restored; degraded = List.rev !degraded; skipped = !skipped }

let save_file ?crash_after_bytes ~path ~seed ~policy internals =
  Io.write_atomic ?crash_after_bytes ~path (encode ~seed ~policy internals)

(* Daemon session naming: one snapshot file per (tenant, bench, policy,
   seed) identity.  The tenant name is sanitized into a filesystem-safe
   stem; the rest of the identity rides as a CRC32 suffix, so a tenant
   reconnecting under a different bench/policy/seed resolves to a fresh
   session instead of tripping the snapshot header's identity check. *)
let session_file ~dir ~tenant ~bench ~policy ~seed =
  let stem =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
        | _ -> '_')
      tenant
  in
  let stem = if stem = "" then "tenant" else stem in
  let ident = Bytes.of_string (Printf.sprintf "%s|%s|%s|%Ld" tenant bench policy seed) in
  Filename.concat dir
    (Printf.sprintf "%s-%08x.session" stem (Wire.crc32 ident ~pos:0 ~len:(Bytes.length ident)))

let restore_file ~path ~seed ~policy internals =
  decode_into (Io.read_file path) ~seed ~policy internals
