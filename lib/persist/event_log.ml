(* On-disk branch-event recordings.

   The file is the persistent form of a [Branch_stream.events] recording:
   a CRC'd identity header (program shape + seed, the two inputs that
   determine the branch stream) followed by one bit-packed payload:

       "REVL" | u32 version | u32 n_blocks | u32 seed lo | u32 seed hi
       | u32 n_events lo | u32 n_events hi | u32 crc32(bytes 0..27)
       | u32 n_bits | payload | u32 crc32(payload)

   Each event is one [kb + 1 + kn]-bit field — block id, taken flag,
   successor code (0 for a halt, else the successor's block id + 1) —
   where [kb]/[kn] are the minimal widths for a block id / successor code
   under the program's block count.  A field wider than the 32 bits a
   [Bitbuf] call takes (past 2^16 blocks) goes as two calls, its high
   bits then its low 32, which gives the same bits.  For the bundled
   workloads (tens to hundreds of blocks) that is ~2 bytes per event
   against the 16 bytes (two ints) of the in-memory recording.

   Unlike snapshots there is no per-section degrade path: a recording with
   any corrupt byte cannot be replayed bit-identically, which is its whole
   contract, so every validation failure is [Persist.Hard_corruption]. *)

open Regionsel_isa
module Branch_stream = Regionsel_engine.Branch_stream
module Bitbuf = Regionsel_core.Bitbuf

let magic = "REVL"
let version = 1
let header_len = 36

(* Bits to represent every value in [0, max]. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

let corrupt reason = raise (Persist.Hard_corruption ("event log: " ^ reason))

(* How events pack under a program: the block-id and successor-code
   widths, and their sum, the event's field width. *)
type layout = { program : Program.t; n_blocks : int; kb : int; kn : int; width : int }

let layout program =
  let n_blocks = Program.n_blocks program in
  let kb = bits_for (n_blocks - 1) and kn = bits_for n_blocks in
  { program; n_blocks; kb; kn; width = kb + 1 + kn }

(* The payload's bit count travels as a u32, so a recording is capped at
   the events whose fields fit in 2^32 - 1 bits; past that it would be
   written with a wrapped count that the decoder refuses. *)
let max_events_of l = 0xFFFF_FFFF / l.width
let max_events program = max_events_of (layout program)

(* The encoder walks the recording one chunk at a time: slot [2k] is
   already the field's top part, [(block_id lsl 1) lor taken]. *)
let pack_range l w events ~pos ~len =
  if len > max_events_of l then
    invalid_arg
      (Printf.sprintf "Event_log: %d events exceed the format's %d-event limit" len
         (max_events_of l));
  Branch_stream.iter_range events ~pos ~len (fun slots ~first ~count ->
      for k = first to first + count - 1 do
        let p = Array.unsafe_get slots (2 * k) in
        if p lsr 1 >= l.n_blocks then invalid_arg "Event_log.encode: block id outside the program";
        let next = Array.unsafe_get slots ((2 * k) + 1) in
        let code =
          if next = Addr.none then 0
          else begin
            let id = Program.block_id l.program next in
            if id < 0 then invalid_arg "Event_log.encode: successor is not a block start";
            id + 1
          end
        in
        let v = (p lsl l.kn) lor code in
        if l.width <= 32 then Bitbuf.Writer.add_bits w v l.width
        else begin
          Bitbuf.Writer.add_bits w (v lsr 32) (l.width - 32);
          Bitbuf.Writer.add_bits w (v land 0xFFFF_FFFF) 32
        end
      done)

let unpack l r ~n_events ~into =
  let code_mask = (1 lsl l.kn) - 1 in
  for _ = 1 to n_events do
    let v =
      if l.width <= 32 then Bitbuf.Reader.read_bits r l.width
      else
        let hi = Bitbuf.Reader.read_bits r (l.width - 32) in
        (hi lsl 32) lor Bitbuf.Reader.read_bits r 32
    in
    let block_id = v lsr (l.kn + 1) and code = v land code_mask in
    if block_id >= l.n_blocks then corrupt "block id outside the program";
    if code > l.n_blocks then corrupt "successor code outside the program";
    let next =
      if code = 0 then Addr.none else (Program.block_of_id l.program (code - 1)).Block.start
    in
    Branch_stream.append_event into ~block_id ~taken:((v lsr l.kn) land 1 = 1) ~next
  done

(* [header] bytes for the caller to fill, then the payload and its CRC. *)
let seal w ~header =
  let plen = Bitbuf.Writer.byte_length w in
  let out = Bytes.create (header + plen + 4) in
  Bitbuf.Writer.blit w out ~pos:header;
  Wire.set_u32 out (header + plen) (Wire.crc32 out ~pos:header ~len:plen);
  out

(* Read a recording or batch through one cursor: [header] reads what
   precedes the payload and returns the event count, then come [n_bits |
   payload | crc32(payload)] and the end.  The cursor's [Failure]s, and
   the checks', become [Hard_corruption] here; the reader is opened on
   the payload in place.  The count check divides rather than
   multiplies, so no count can wrap around to a matching bit total. *)
let open_payload bytes l ~what header =
  let c = Wire.cursor bytes ~pos:0 ~len:(Bytes.length bytes) in
  try
    let n_events = header c in
    let n_bits = Wire.u32 c "bit count" in
    if n_bits mod l.width <> 0 || n_bits / l.width <> n_events then
      failwith "event count disagrees with payload size";
    let plen = (n_bits + 7) / 8 in
    let pos = Wire.skip c "payload" plen in
    if Wire.u32 c "payload checksum" <> Wire.crc32 bytes ~pos ~len:plen then
      failwith "payload checksum mismatch";
    Wire.expect_end c "payload";
    (n_events, Bitbuf.Reader.create ~pos bytes ~n_bits)
  with Failure reason -> corrupt (what ^ reason)

let encode ~program ~seed events =
  let l = layout program in
  let n_events = Branch_stream.length events in
  let w = Bitbuf.Writer.create () in
  pack_range l w events ~pos:0 ~len:n_events;
  let out = seal w ~header:header_len in
  Bytes.blit_string magic 0 out 0 4;
  Wire.set_u32 out 4 version;
  Wire.set_u32 out 8 l.n_blocks;
  Wire.set_u32 out 12 (Wire.seed_lo seed);
  Wire.set_u32 out 16 (Wire.seed_hi seed);
  Wire.set_u32 out 20 (Wire.lo_word n_events);
  Wire.set_u32 out 24 (Wire.hi_word n_events);
  Wire.set_u32 out 28 (Wire.crc32 out ~pos:0 ~len:28);
  Wire.set_u32 out 32 (Bitbuf.Writer.length_bits w);
  out

let decode bytes ~program ~seed =
  let l = layout program in
  let n_events, r =
    open_payload bytes l ~what:"" (fun c ->
        if Bytes.sub_string bytes (Wire.skip c "magic" 4) 4 <> magic then failwith "bad magic";
        let v = Wire.u32 c "version" in
        let n_blocks = Wire.u32 c "block count" in
        let seed_lo = Wire.u32 c "seed" in
        let seed_hi = Wire.u32 c "seed" in
        let count_lo = Wire.u32 c "event count" in
        let count_hi = Wire.u32 c "event count" in
        let header_end = Wire.skip c "header checksum" 0 in
        if Wire.u32 c "header checksum" <> Wire.crc32 bytes ~pos:0 ~len:header_end then
          failwith "header checksum mismatch";
        if v <> version then failwith (Printf.sprintf "unsupported version %d" v);
        if n_blocks <> l.n_blocks then
          failwith
            (Printf.sprintf "program mismatch (%d blocks recorded, %d here)" n_blocks l.n_blocks);
        if seed_lo <> Wire.seed_lo seed || seed_hi <> Wire.seed_hi seed then
          failwith "seed mismatch";
        try Wire.nonneg63 ~hi:count_hi ~lo:count_lo
        with Failure m -> failwith ("event count " ^ m))
  in
  let events = Branch_stream.recorder () in
  unpack l r ~n_events ~into:events;
  events

(* The wire form of a recording slice — the daemon's Events frame body.
   Same bit packing and checksum discipline as the file, but no identity
   header: on the wire, identity was already pinned by the session Hello.

       u32 n_events | u32 n_bits | payload | u32 crc32(payload) *)

let encode_batch ~program events ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Branch_stream.length events then
    invalid_arg "Event_log.encode_batch: range outside the recording";
  let w = Bitbuf.Writer.create () in
  pack_range (layout program) w events ~pos ~len;
  let out = seal w ~header:8 in
  Wire.set_u32 out 0 len;
  Wire.set_u32 out 4 (Bitbuf.Writer.length_bits w);
  out

let decode_batch bytes ~program ~into =
  let l = layout program in
  let n_events, r = open_payload bytes l ~what:"batch: " (fun c -> Wire.u32 c "event count") in
  (* A payload whose checksum holds but whose events fail validation
     (block ids outside the program) must not leave a partial append in
     [into] — callers feed live replay streams — so a failure rolls
     [into] back to where it stood. *)
  let before = Branch_stream.length into in
  (try unpack l r ~n_events ~into
   with e ->
     Branch_stream.truncate into before;
     raise e);
  n_events

let write_file ~path ~program ~seed events =
  let data = encode ~program ~seed events in
  Io.write_atomic ~path data;
  Bytes.length data

let read_file ~path ~program ~seed = decode (Io.read_file path) ~program ~seed
