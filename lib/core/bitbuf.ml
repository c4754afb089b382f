module Writer = struct
  (* Whole bytes go straight into [buf]; the 0..7 bits of a partial byte
     wait right-aligned in [acc] until a later field completes it. *)
  type t = { mutable buf : bytes; mutable pos : int; mutable acc : int; mutable n_acc : int }

  let create () = { buf = Bytes.create 64; pos = 0; acc = 0; n_acc = 0 }

  let add_bits t v k =
    if k < 0 || k > 32 || v lsr k <> 0 then invalid_arg "Bitbuf.Writer.add_bits";
    (* 7 pending bits plus a 32-bit field complete at most 4 bytes. *)
    if t.pos + 4 > Bytes.length t.buf then begin
      let buf = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 buf 0 t.pos;
      t.buf <- buf
    end;
    let acc = (t.acc lsl k) lor v in
    let n = ref (t.n_acc + k) and pos = ref t.pos in
    while !n >= 8 do
      n := !n - 8;
      Bytes.unsafe_set t.buf !pos (Char.unsafe_chr ((acc lsr !n) land 0xFF));
      incr pos
    done;
    t.pos <- !pos;
    t.n_acc <- !n;
    t.acc <- acc land ((1 lsl !n) - 1)

  let add_bit t bit = add_bits t (Bool.to_int bit) 1
  let length_bits t = (t.pos * 8) + t.n_acc
  let byte_length t = if t.n_acc > 0 then t.pos + 1 else t.pos

  let blit t dst ~pos =
    if pos < 0 || pos + byte_length t > Bytes.length dst then invalid_arg "Bitbuf.Writer.blit";
    Bytes.blit t.buf 0 dst pos t.pos;
    if t.n_acc > 0 then Bytes.set dst (pos + t.pos) (Char.unsafe_chr (t.acc lsl (8 - t.n_acc)))

  let contents t =
    let b = Bytes.create (byte_length t) in
    blit t b ~pos:0;
    b
end

module Reader = struct
  external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* [at] and [stop] are absolute bit offsets into [buf]. *)
  type t = { buf : bytes; stop : int; mutable at : int }

  exception Out_of_bits

  let create ?(pos = 0) buf ~n_bits =
    if pos < 0 || n_bits < 0 || pos + ((n_bits + 7) / 8) > Bytes.length buf then
      invalid_arg "Bitbuf.Reader.create";
    { buf; stop = (pos * 8) + n_bits; at = pos * 8 }

  let read_bits t k =
    if k < 0 || k > 32 then invalid_arg "Bitbuf.Reader.read_bits";
    let at = t.at in
    if k > t.stop - at then raise Out_of_bits;
    t.at <- at + k;
    if k = 0 then 0
    else begin
      let byte = at lsr 3 and off = at land 7 in
      if byte + 8 <= Bytes.length t.buf then begin
        (* One unaligned big-endian 64-bit load covers the field
           ([off + k <= 39]); bits past it are masked off. *)
        let w = get64u t.buf byte in
        let w = if Sys.big_endian then w else bswap64 w in
        Int64.to_int (Int64.shift_right_logical w (64 - off - k)) land ((1 lsl k) - 1)
      end
      else begin
        (* Within 8 bytes of the buffer's end: gather the covering bytes. *)
        let last = (at + k - 1) lsr 3 in
        let w = ref 0 in
        for i = byte to last do
          w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.buf i)
        done;
        (!w lsr (((last - byte + 1) * 8) - off - k)) land ((1 lsl k) - 1)
      end
    end

  let read_bit t = read_bits t 1 = 1
  let remaining_bits t = t.stop - t.at
end
