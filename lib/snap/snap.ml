type writer = int -> unit

let emit_bool (emit : writer) b = emit (if b then 1 else 0)

(* Floats ride as two 32-bit halves of their IEEE bits, low half first:
   [Int64.to_int] of a full 64-bit pattern would lose the top bit. *)
let emit_float (emit : writer) f =
  let bits = Int64.bits_of_float f in
  emit (Int64.to_int (Int64.logand bits 0xFFFF_FFFFL));
  emit (Int64.to_int (Int64.shift_right_logical bits 32))

let emit_list (emit : writer) f l =
  emit (List.length l);
  List.iter f l

let emit_array (emit : writer) f a =
  emit (Array.length a);
  Array.iter f a

let emit_pairs (emit : writer) l =
  emit_list emit
    (fun (k, v) ->
      emit k;
      emit v)
    l

let ints save =
  let acc = ref [] in
  save (fun v -> acc := v :: !acc);
  Array.of_list (List.rev !acc)

type reader = { ints : int array; mutable at : int }

let remaining r = Array.length r.ints - r.at

let decode ints f =
  let r = { ints; at = 0 } in
  let v = f r in
  if remaining r > 0 then failwith (Printf.sprintf "%d trailing ints" (remaining r));
  v

let int r =
  if r.at >= Array.length r.ints then failwith "payload too short";
  let v = r.ints.(r.at) in
  r.at <- r.at + 1;
  v

let nat r =
  let v = int r in
  if v < 0 then failwith (Printf.sprintf "negative value %d" v);
  v

let tag r ~n =
  let v = int r in
  if v < 0 || v >= n then failwith (Printf.sprintf "value %d outside [0, %d)" v n);
  v

let bool r = tag r ~n:2 = 1

let len r =
  let n = nat r in
  if n > remaining r then
    failwith (Printf.sprintf "count %d exceeds the %d ints left" n (remaining r));
  n

let float r =
  let lo = tag r ~n:0x1_0000_0000 in
  let hi = tag r ~n:0x1_0000_0000 in
  Int64.float_of_bits (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let list r f = List.init (len r) (fun _ -> f r)
let array r f = Array.init (len r) (fun _ -> f r)

let pairs r =
  list r (fun r ->
      let k = int r in
      (k, int r))
