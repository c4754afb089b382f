let set_u32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)
let bu32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let ru32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF
let lo_word v = v land 0xFFFF_FFFF
let hi_word v = (v asr 32) land 0x7FFF_FFFF

let int63 ~hi ~lo =
  if hi > 0x7FFF_FFFF then failwith "malformed int (high half out of range)";
  (hi lsl 32) lor lo

let nonneg63 ~hi ~lo =
  if hi >= 0x4000_0000 then failwith (Printf.sprintf "value out of range (hi word 0x%08X)" hi);
  (hi lsl 32) lor lo

let seed_lo seed = Int64.to_int (Int64.logand seed 0xFFFF_FFFFL)
let seed_hi seed = Int64.to_int (Int64.shift_right_logical seed 32)

let seed_of_words ~hi ~lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* Reflected polynomial 0xEDB88320, slicing-by-4: [crc_table] holds four
   256-entry tables, table [k] advancing a byte's contribution through [k]
   further zero bytes, so one step folds in a whole little-endian word. *)
let crc_table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 1023 do
    let c = t.(n - 256) in
    t.(n) <- (c lsr 8) lxor t.(c land 0xFF)
  done;
  t

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let crc32 ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Wire.crc32";
  let t = crc_table in
  let c = ref (crc lxor 0xFFFF_FFFF) and i = ref pos in
  let stop = pos + len in
  while !i + 4 <= stop do
    let w = get32u b !i in
    let w = if Sys.big_endian then bswap32 w else w in
    let x = !c lxor (Int32.to_int w land 0xFFFF_FFFF) in
    c :=
      Array.unsafe_get t (768 + (x land 0xFF))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (x lsr 24);
    i := !i + 4
  done;
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFF_FFFF

type cursor = { buf : bytes; stop : int; mutable at : int }

let cursor buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Wire.cursor";
  { buf; stop = pos + len; at = pos }

let remaining c = c.stop - c.at

let skip c what n =
  if n < 0 || n > c.stop - c.at then failwith ("truncated " ^ what);
  let at = c.at in
  c.at <- at + n;
  at

let u8 c what = Char.code (Bytes.get c.buf (skip c what 1))
let u32 c what = ru32 c.buf (skip c what 4)

let string c what ~limit =
  let n = u32 c what in
  if n > limit then failwith (Printf.sprintf "%s longer than %d bytes" what limit);
  Bytes.sub_string c.buf (skip c what n) n

let expect_end c what =
  if c.at <> c.stop then failwith (Printf.sprintf "%s has %d trailing bytes" what (c.stop - c.at))
