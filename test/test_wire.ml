(* The byte-level primitives every binary format shares: big-endian u32
   fields, the two-word int encoding and its range-checked readers, the
   bounded cursor all three formats decode through, and the CRC32 checked
   against its standard check value and a bit-at-a-time reference. *)

module Wire = Regionsel_persist.Wire
open Fixtures

(* The specification: CRC32 (IEEE 802.3), reflected, one bit per step. *)
let reference_crc32 s =
  let c = ref 0xFFFF_FFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFF_FFFF

let crc_check_value () =
  let b = Bytes.of_string "123456789" in
  check_int "standard check value" 0xCBF43926 (Wire.crc32 b ~pos:0 ~len:9);
  check_int "empty range" 0 (Wire.crc32 b ~pos:4 ~len:0);
  check_true "range past the end rejected"
    (try ignore (Wire.crc32 b ~pos:5 ~len:5); false with Invalid_argument _ -> true)

let u32_fields () =
  let b = Bytes.make 8 '\000' in
  Wire.set_u32 b 2 0xDEADBEEF;
  check_int "big-endian bytes" 0xDE (Char.code (Bytes.get b 2));
  check_int "low byte last" 0xEF (Char.code (Bytes.get b 5));
  check_int "read back unsigned" 0xDEADBEEF (Wire.ru32 b 2);
  let buf = Buffer.create 4 in
  Wire.bu32 buf 0xDEADBEEF;
  check_true "appended form is the stored form" (Bytes.sub b 2 4 = Buffer.to_bytes buf);
  Wire.set_u32 b 0 (-1);
  check_int "only the low 32 bits are stored" 0xFFFF_FFFF (Wire.ru32 b 0)

let word_readers () =
  List.iter
    (fun v ->
      check_int (Printf.sprintf "int63 round-trips %d" v) v
        (Wire.int63 ~hi:(Wire.hi_word v) ~lo:(Wire.lo_word v));
      if v >= 0 then
        check_int (Printf.sprintf "nonneg63 round-trips %d" v) v
          (Wire.nonneg63 ~hi:(Wire.hi_word v) ~lo:(Wire.lo_word v)))
    [ 0; 1; -1; 0xFFFF_FFFF; 0x1_0000_0000; max_int; min_int; 123_456_789_012; -987_654_321_098 ];
  let fails f = try ignore (f ()); false with Failure _ -> true in
  check_true "signed reader rejects hi > 0x7FFFFFFF"
    (fails (fun () -> Wire.int63 ~hi:0x8000_0000 ~lo:0));
  check_true "non-negative reader rejects the sign bit"
    (fails (fun () -> Wire.nonneg63 ~hi:0x4000_0000 ~lo:0));
  check_true "non-negative reader rejects a dropped bit 31"
    (fails (fun () -> Wire.nonneg63 ~hi:0x8000_0000 ~lo:5));
  let seed = 0xF234_5678_9ABC_DEF0L in
  check_true "seed words round-trip"
    (Int64.equal seed (Wire.seed_of_words ~hi:(Wire.seed_hi seed) ~lo:(Wire.seed_lo seed)))

let fails f =
  match f () with
  | _ -> false
  | exception Failure _ -> true
  | exception e -> Alcotest.failf "raised %s, not Failure" (Printexc.to_string e)

(* Every reader one byte short fails with [Failure], never
   [Invalid_argument], whether the cursor ends at the buffer's end or
   inside it. *)
let cursor_short_reads () =
  let buf = Bytes.make 16 '\000' in
  Wire.set_u32 buf 4 2;
  List.iter
    (fun (label, at) ->
      check_true (label ^ ": u8") (fails (fun () -> Wire.u8 (at 0) "f"));
      check_true (label ^ ": u32") (fails (fun () -> Wire.u32 (at 3) "f"));
      check_true (label ^ ": skip") (fails (fun () -> Wire.skip (at 4) "f" 5));
      check_true (label ^ ": negative skip") (fails (fun () -> Wire.skip (at 4) "f" (-1))))
    [
      ("ending at the buffer's end", fun len -> Wire.cursor buf ~pos:(16 - len) ~len);
      ("ending inside the buffer", fun len -> Wire.cursor buf ~pos:4 ~len);
    ];
  check_true "string body one byte short"
    (fails (fun () -> Wire.string (Wire.cursor buf ~pos:4 ~len:5) "f" ~limit:8));
  check_true "string length one byte short"
    (fails (fun () -> Wire.string (Wire.cursor buf ~pos:4 ~len:3) "f" ~limit:8));
  check_true "a range outside the buffer is a caller error"
    (try ignore (Wire.cursor buf ~pos:12 ~len:5); false with Invalid_argument _ -> true)

(* A cursor over a sub-range stops at its [len] although the buffer
   continues: daemon frames sit inside the dechunker's larger buffer. *)
let cursor_sub_range () =
  let buf = Bytes.make 32 '\007' in
  Wire.set_u32 buf 8 0xCAFE;
  Wire.set_u32 buf 12 4;
  let c = Wire.cursor buf ~pos:8 ~len:9 in
  check_int "skip 0 is the position" 8 (Wire.skip c "f" 0);
  check_int "u32" 0xCAFE (Wire.u32 c "f");
  check_int "remaining" 5 (Wire.remaining c);
  check_true "a string running past len is rejected"
    (fails (fun () -> Wire.string c "f" ~limit:16));
  let c = Wire.cursor buf ~pos:8 ~len:6 in
  check_int "skip returns where the bytes start" 8 (Wire.skip c "f" 6);
  check_true "nothing is read past len" (fails (fun () -> Wire.u8 c "f"));
  let c = Wire.cursor buf ~pos:12 ~len:8 in
  Alcotest.(check string) "a string inside len" "\007\007\007\007"
    (Wire.string c "f" ~limit:4);
  Wire.expect_end c "f"

(* A string over [~limit], and one longer than the bytes left, are both
   rejected before anything is allocated. *)
let cursor_string_bounds () =
  let n = 60_000 in
  let buf = Bytes.make (4 + n) 'x' in
  Wire.set_u32 buf 0 n;
  let rejected what limit =
    let before = Gc.allocated_bytes () in
    let c = Wire.cursor buf ~pos:0 ~len:(4 + n) in
    check_true what (fails (fun () -> Wire.string c "f" ~limit));
    check_true (what ^ ", allocating less than the string")
      (Gc.allocated_bytes () -. before < float_of_int (n / 2))
  in
  rejected "a string over its limit" (n - 1);
  Wire.set_u32 buf 0 (n + 1);
  rejected "a string longer than the bytes left" max_int;
  Wire.set_u32 buf 0 0xFFFF_FFFF;
  rejected "a 4 GiB length" max_int;
  Wire.set_u32 buf 0 n;
  check_int "the string at its limit reads" n
    (String.length (Wire.string (Wire.cursor buf ~pos:0 ~len:(4 + n)) "f" ~limit:n))

let cursor_exact_end () =
  let buf = Bytes.make 5 '\000' in
  let c = Wire.cursor buf ~pos:0 ~len:5 in
  ignore (Wire.u32 c "f" : int);
  check_true "one trailing byte is rejected" (fails (fun () -> Wire.expect_end c "f"));
  ignore (Wire.u8 c "f" : int);
  Wire.expect_end c "f"

let qcheck_crc_matches_reference =
  QCheck.Test.make ~name:"crc32 of any range matches the bitwise reference" ~count:500
    QCheck.(triple (string_of_size (Gen.int_range 0 80)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Wire.crc32 (Bytes.of_string s) ~pos ~len = reference_crc32 (String.sub s pos len))

let qcheck_crc_chains =
  QCheck.Test.make ~name:"crc32 ~crc continues a CRC across ranges" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 40)) (string_of_size (Gen.int_range 0 40)))
    (fun (a, b) ->
      (* [b] first in the buffer, [a] after it: the ranges need not be
         adjacent or in order. *)
      let buf = Bytes.of_string (b ^ a) in
      let ca = Wire.crc32 buf ~pos:(String.length b) ~len:(String.length a) in
      Wire.crc32 ~crc:ca buf ~pos:0 ~len:(String.length b) = reference_crc32 (a ^ b))

let suite =
  [
    case "crc32 check value" crc_check_value;
    case "u32 fields" u32_fields;
    case "two-word ints and their range checks" word_readers;
    case "cursor: every reader one byte short fails" cursor_short_reads;
    case "cursor: a sub-range is never read past" cursor_sub_range;
    case "cursor: string bounds checked before allocating" cursor_string_bounds;
    case "cursor: exact end rejects a trailing byte" cursor_exact_end;
    QCheck_alcotest.to_alcotest qcheck_crc_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_crc_chains;
  ]
