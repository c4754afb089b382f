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
  Array.init (len / 8) (fun i ->
      let p = pos + (8 * i) in
      Wire.int63 ~hi:(Wire.ru32 bytes (p + 4)) ~lo:(Wire.ru32 bytes p))

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

let section_of_tag tag = Option.map snd (List.find_opt (fun (t, _) -> t = tag) tags)

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

let decode_into bytes ~seed ~policy (internals : Simulator.internals) =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let hard msg = raise (Hard_corruption msg) in
  let u32 () =
    let v = Wire.ru32 bytes !pos in
    pos := !pos + 4;
    v
  in
  let u32_hard what = if !pos + 4 > len then hard ("truncated header: " ^ what) else u32 () in
  if len < 4 || not (String.equal (Bytes.sub_string bytes 0 4) magic) then hard "bad magic";
  pos := 4;
  let ver = u32_hard "format version" in
  if ver <> format_version then
    hard (Printf.sprintf "unsupported format version %d (this build reads %d)" ver format_version);
  let n_blocks = u32_hard "block count" in
  let slo = u32_hard "seed" in
  let shi = u32_hard "seed" in
  let name_len = u32_hard "policy name length" in
  if !pos + name_len > len then hard "truncated header: policy name";
  let snap_policy = Bytes.sub_string bytes !pos name_len in
  pos := !pos + name_len;
  let n_sections = u32_hard "section count" in
  let header_end = !pos in
  let header_crc = u32_hard "header checksum" in
  if header_crc <> Wire.crc32 bytes ~pos:0 ~len:header_end then hard "header checksum mismatch";
  let run_blocks = Program.n_blocks internals.Simulator.int_ctx.Context.program in
  if n_blocks <> run_blocks then
    hard
      (Printf.sprintf "snapshot is for a different program (%d blocks, this run has %d)"
         n_blocks run_blocks);
  let snap_seed = Wire.seed_of_words ~hi:shi ~lo:slo in
  if not (Int64.equal snap_seed seed) then
    hard (Printf.sprintf "snapshot seed %Ld does not match this run's seed %Ld" snap_seed seed);
  if not (String.equal snap_policy policy) then
    hard
      (Printf.sprintf "snapshot policy %S does not match this run's policy %S" snap_policy
         policy);
  let restored = ref [] in
  let degraded = ref [] in
  let skipped = ref 0 in
  let drop section reason = degraded := { section; reason } :: !degraded in
  let find_section n =
    List.find_opt
      (fun (s : Simulator.section) -> String.equal s.Simulator.sec_name n)
      internals.Simulator.int_sections
  in
  let seen = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < len do
    incr seen;
    if !pos + 16 > len then begin
      drop "<frame>" "truncated section header";
      stop := true
    end
    else begin
      let fpos = !pos in
      let tag = u32 () in
      let sver = u32 () in
      let plen = u32 () in
      let pcrc = u32 () in
      let sec_name =
        match section_of_tag tag with Some n -> n | None -> Printf.sprintf "tag-%d" tag
      in
      if !pos + plen > len then begin
        drop sec_name "truncated payload";
        stop := true
      end
      else begin
        let ppos = !pos in
        pos := !pos + plen;
        if pcrc <> frame_crc bytes ~hpos:fpos bytes ~ppos ~plen then
          drop sec_name "checksum mismatch"
        else
          match find_section sec_name with
          | None ->
            (* Unknown tag, or a section this run has no home for (e.g. a
               telemetry section restored into a run without a sink).
               The checksum above already vouched for the frame, so this
               is version skew or configuration skew, not corruption. *)
            incr skipped
          | Some s ->
            if sver <> section_version then
              drop sec_name (Printf.sprintf "unsupported section version %d" sver)
            else
              (* Decode, then commit: a section whose stream fails to parse,
                 or leaves ints unread, is never applied. *)
              match Snap.decode (payload_ints bytes ~pos:ppos ~len:plen) s.Simulator.sec_load with
              | commit ->
                commit ();
                restored := sec_name :: !restored
              | exception (Failure msg | Invalid_argument msg) -> drop sec_name msg
      end
    end
  done;
  if !seen < n_sections then
    drop "<file>"
      (Printf.sprintf "snapshot ends after %d of %d sections" !seen n_sections);
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
