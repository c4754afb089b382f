module Bitbuf = Regionsel_core.Bitbuf
open Fixtures

let roundtrip_bits () =
  let w = Bitbuf.Writer.create () in
  let bits = [ true; false; true; true; false; false; true; false; true ] in
  List.iter (Bitbuf.Writer.add_bit w) bits;
  check_int "nine bits" 9 (Bitbuf.Writer.length_bits w);
  check_int "two bytes" 2 (Bitbuf.Writer.byte_length w);
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:9 in
  let back = List.init 9 (fun _ -> Bitbuf.Reader.read_bit r) in
  Alcotest.(check (list bool)) "bits round-trip" bits back

let roundtrip_codes () =
  let w = Bitbuf.Writer.create () in
  List.iter (fun c -> Bitbuf.Writer.add_bits w c 2) [ 0; 1; 2; 3; 3; 0 ];
  Bitbuf.Writer.add_bits w 0xDEADBEEF 32;
  Bitbuf.Writer.add_bits w 2 2;
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w) in
  Alcotest.(check (list int)) "codes" [ 0; 1; 2; 3; 3; 0 ]
    (List.init 6 (fun _ -> Bitbuf.Reader.read_bits r 2));
  check_int "uint32" 0xDEADBEEF (Bitbuf.Reader.read_bits r 32);
  check_int "trailing code" 2 (Bitbuf.Reader.read_bits r 2);
  check_int "nothing remains" 0 (Bitbuf.Reader.remaining_bits r)

let out_of_bits () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.add_bit w true;
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:1 in
  ignore (Bitbuf.Reader.read_bit r);
  check_true "reading past the end raises"
    (try
       ignore (Bitbuf.Reader.read_bit r);
       false
     with Bitbuf.Reader.Out_of_bits -> true)

let growth () =
  let w = Bitbuf.Writer.create () in
  for i = 0 to 9_999 do
    Bitbuf.Writer.add_bit w (i mod 3 = 0)
  done;
  check_int "ten thousand bits" 10_000 (Bitbuf.Writer.length_bits w);
  let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:10_000 in
  let ok = ref true in
  for i = 0 to 9_999 do
    if Bitbuf.Reader.read_bit r <> (i mod 3 = 0) then ok := false
  done;
  check_true "all bits correct after growth" !ok

let padding_is_zero () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.add_bit w true;
  let bytes = Bitbuf.Writer.contents w in
  check_int "single byte" 1 (Bytes.length bytes);
  check_int "only the top bit set" 0x80 (Char.code (Bytes.get bytes 0))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"arbitrary bit sequences round-trip" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 200) bool)
    (fun bits ->
      let w = Bitbuf.Writer.create () in
      List.iter (Bitbuf.Writer.add_bit w) bits;
      let r =
        Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w)
      in
      List.for_all (fun b -> Bitbuf.Reader.read_bit r = b) bits)

let qcheck_uint32_roundtrip =
  QCheck.Test.make ~name:"uint32 values round-trip at any bit offset" ~count:300
    QCheck.(pair (int_range 0 15) (int_bound 0x3FFFFFFF))
    (fun (offset, v) ->
      let w = Bitbuf.Writer.create () in
      for _ = 1 to offset do
        Bitbuf.Writer.add_bit w true
      done;
      Bitbuf.Writer.add_bits w v 32;
      let r =
        Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:(Bitbuf.Writer.length_bits w)
      in
      for _ = 1 to offset do
        ignore (Bitbuf.Reader.read_bit r)
      done;
      Bitbuf.Reader.read_bits r 32 = v)

(* --- Field-at-a-time properties ---------------------------------------- *)

(* A writer operation: one bit, or a [k]-bit field holding [v]. *)
type op = Bit of bool | Field of int * int

let width = function Bit _ -> 1 | Field (k, _) -> k

let gen_field =
  QCheck.Gen.(
    let* k = int_range 0 32 in
    let* v = int_bound ((1 lsl k) - 1) in
    return (Field (k, v)))

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 120) (frequency [ (1, map (fun b -> Bit b) bool); (4, gen_field) ]))

let print_ops =
  QCheck.Print.list (function
    | Bit b -> Printf.sprintf "bit %b" b
    | Field (k, v) -> Printf.sprintf "%d:0x%x" k v)

let arb_ops = QCheck.make ~print:print_ops gen_ops

let write w = function
  | Bit b -> Bitbuf.Writer.add_bit w b
  | Field (k, v) -> Bitbuf.Writer.add_bits w v k

(* The specification: the format is the sequence of field bits, each
   field most significant bit first, packed MSB-first into bytes and
   zero-padded — written here one bit per step. *)
module Reference = struct
  type t = { bits : Buffer.t }

  let create () = { bits = Buffer.create 64 }

  let add_bit t b = Buffer.add_char t.bits (if b then '1' else '0')

  let add t = function
    | Bit b -> add_bit t b
    | Field (k, v) ->
      for i = k - 1 downto 0 do
        add_bit t ((v lsr i) land 1 = 1)
      done

  let contents t =
    let n = Buffer.length t.bits in
    let out = Bytes.make ((n + 7) / 8) '\000' in
    String.iteri
      (fun i c ->
        if c = '1' then
          Bytes.set out (i / 8)
            (Char.chr (Char.code (Bytes.get out (i / 8)) lor (0x80 lsr (i mod 8)))))
      (Buffer.contents t.bits);
    out
end

let qcheck_fields_roundtrip =
  QCheck.Test.make ~name:"mixed-width fields round-trip at any byte offset" ~count:400
    QCheck.(pair arb_ops (pair (int_range 0 9) (int_range 0 9)))
    (fun (ops, (prefix, suffix)) ->
      let w = Bitbuf.Writer.create () in
      List.iter (write w) ops;
      (* Embed the payload between garbage bytes: the reader must honour
         [~pos] and never let bits outside its window into a field. *)
      let n = Bitbuf.Writer.byte_length w in
      let buf = Bytes.make (prefix + n + suffix) '\xff' in
      Bitbuf.Writer.blit w buf ~pos:prefix;
      let r = Bitbuf.Reader.create ~pos:prefix buf ~n_bits:(Bitbuf.Writer.length_bits w) in
      List.for_all
        (function
          | Bit b -> Bitbuf.Reader.read_bit r = b
          | Field (k, v) -> Bitbuf.Reader.read_bits r k = v)
        ops
      && Bitbuf.Reader.remaining_bits r = 0)

let qcheck_matches_reference =
  QCheck.Test.make
    ~name:"contents, length_bits and byte_length match the bitwise reference after every call"
    ~count:400 arb_ops
    (fun ops ->
      let w = Bitbuf.Writer.create () in
      let reference = Reference.create () in
      let n_bits = ref 0 in
      List.for_all
        (fun op ->
          write w op;
          Reference.add reference op;
          n_bits := !n_bits + width op;
          let expected = Reference.contents reference in
          Bitbuf.Writer.length_bits w = !n_bits
          && Bitbuf.Writer.byte_length w = (!n_bits + 7) / 8
          && Bytes.equal (Bitbuf.Writer.contents w) expected)
        ops)

let qcheck_out_of_bits_at_end =
  QCheck.Test.make ~name:"Out_of_bits exactly at the end, reader unmoved" ~count:300
    QCheck.(pair arb_ops (int_range 1 32))
    (fun (ops, k) ->
      let w = Bitbuf.Writer.create () in
      List.iter (write w) ops;
      let n = Bitbuf.Writer.length_bits w in
      let r = Bitbuf.Reader.create (Bitbuf.Writer.contents w) ~n_bits:n in
      (* Read everything but the last [min k n] bits, then ask for one
         bit more than remains. *)
      let tail = min k n in
      let rec skip left =
        if left > 0 then begin
          ignore (Bitbuf.Reader.read_bits r (min left 32));
          skip (left - 32)
        end
      in
      skip (n - tail);
      let raises f = match f () with _ -> false | exception Bitbuf.Reader.Out_of_bits -> true in
      (tail = 32 || raises (fun () -> Bitbuf.Reader.read_bits r (tail + 1)))
      && Bitbuf.Reader.remaining_bits r = tail
      && (ignore (Bitbuf.Reader.read_bits r tail);
          raises (fun () -> Bitbuf.Reader.read_bit r))
      && Bitbuf.Reader.remaining_bits r = 0
      && Bitbuf.Reader.read_bits r 0 = 0)

let qcheck_rejects_out_of_range =
  QCheck.Test.make ~name:"out-of-range values and widths are rejected, writer unmoved" ~count:300
    QCheck.(pair arb_ops (int_range 0 32))
    (fun (ops, k) ->
      let w = Bitbuf.Writer.create () in
      List.iter (write w) ops;
      let before = Bitbuf.Writer.contents w in
      let rejects v k =
        match Bitbuf.Writer.add_bits w v k with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      rejects (1 lsl k) k
      && rejects (-1) k
      && rejects 0 33
      && rejects 0 (-1)
      && Bytes.equal before (Bitbuf.Writer.contents w)
      && Bitbuf.Writer.length_bits w = List.fold_left (fun n op -> n + width op) 0 ops)

let suite =
  [
    case "roundtrip bits" roundtrip_bits;
    case "roundtrip codes" roundtrip_codes;
    case "out of bits" out_of_bits;
    case "growth" growth;
    case "padding is zero" padding_is_zero;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_uint32_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_fields_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_out_of_bits_at_end;
    QCheck_alcotest.to_alcotest qcheck_rejects_out_of_range;
  ]
