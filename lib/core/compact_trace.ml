open Regionsel_isa
module Region = Regionsel_engine.Region

type t = { entry : Addr.t; data : bytes; n_bits : int }

let entry t = t.entry
let size_bytes t = Bytes.length t.data

(* Branch codes, per Figure 14. *)
let code_end = 0
let code_indirect = 1
let code_not_taken = 2
let code_taken = 3

let encode (path : Region.path) =
  match path.blocks with
  | [] -> invalid_arg "Compact_trace.encode: empty path"
  | first :: _ ->
    let w = Bitbuf.Writer.create () in
    let inconsistent b s =
      invalid_arg
        (Printf.sprintf "Compact_trace.encode: %s cannot transfer to %s" (Addr.to_string
           (Block.last b)) (Addr.to_string s))
    in
    let emit b succ =
      match b.Block.term with
      | Terminator.Fallthrough | Terminator.Halt -> (
        match succ with
        | Some s when not (Addr.equal s (Block.fall_addr b)) -> inconsistent b s
        | Some _ | None -> ())
      | Terminator.Cond tgt -> (
        match succ with
        | Some s when Addr.equal s tgt -> Bitbuf.Writer.add_bits w code_taken 2
        | Some s when Addr.equal s (Block.fall_addr b) ->
          Bitbuf.Writer.add_bits w code_not_taken 2
        | Some s -> inconsistent b s
        | None -> ())
      | Terminator.Jump tgt | Terminator.Call tgt -> (
        match succ with
        | Some s when Addr.equal s tgt -> Bitbuf.Writer.add_bits w code_taken 2
        | Some s -> inconsistent b s
        | None -> ())
      | Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call -> (
        match succ with
        | Some s ->
          Bitbuf.Writer.add_bits w code_indirect 2;
          Bitbuf.Writer.add_bits w s 32
        | None -> ())
    in
    let rec go = function
      | [] -> assert false
      | [ last ] ->
        emit last path.Region.final_next;
        last
      | b :: (c :: _ as rest) ->
        emit b (Some c.Block.start);
        go rest
    in
    let last = go path.blocks in
    Bitbuf.Writer.add_bits w code_end 2;
    Bitbuf.Writer.add_bits w (Block.last last) 32;
    {
      entry = first.Block.start;
      data = Bitbuf.Writer.contents w;
      n_bits = Bitbuf.Writer.length_bits w;
    }

(* Checkpoint support: the encoding is already a flat byte string, so a
   trace serializes as its geometry plus raw bytes. *)

let save t emit =
  emit t.entry;
  emit t.n_bits;
  emit (Bytes.length t.data);
  Bytes.iter (fun c -> emit (Char.code c)) t.data

let load r =
  let entry = Snap.int r in
  let n_bits = Snap.nat r in
  let data = Bytes.init (Snap.len r) (fun _ -> Char.chr (Snap.tag r ~n:256)) in
  if n_bits > Bytes.length data * 8 then failwith "Compact_trace.load: invalid geometry";
  { entry; data; n_bits }

type token = Taken | Not_taken | Indirect of Addr.t

let read_tokens t =
  let r = Bitbuf.Reader.create t.data ~n_bits:t.n_bits in
  let rec collect acc =
    let code = Bitbuf.Reader.read_bits r 2 in
    if code = code_end then List.rev acc, Bitbuf.Reader.read_bits r 32
    else if code = code_indirect then collect (Indirect (Bitbuf.Reader.read_bits r 32) :: acc)
    else if code = code_not_taken then collect (Not_taken :: acc)
    else collect (Taken :: acc)
  in
  collect []

let errorf fmt = Format.kasprintf invalid_arg fmt

let decode program t =
  let tokens, end_addr =
    try read_tokens t
    with Bitbuf.Reader.Out_of_bits -> errorf "Compact_trace.decode: truncated encoding"
  in
  let tokens = ref tokens in
  let pop () =
    match !tokens with
    | tok :: rest ->
      tokens := rest;
      Some tok
    | [] -> None
  in
  let blocks = ref [] in
  let final_next = ref None in
  let finished = ref false in
  let cur = ref t.entry in
  let steps = ref 0 in
  while not !finished do
    incr steps;
    if !steps > 1_000_000 then errorf "Compact_trace.decode: runaway walk from %a" Addr.pp t.entry;
    let b =
      match Program.block_at program !cur with
      | Some b -> b
      | None -> errorf "Compact_trace.decode: %a is not a block start" Addr.pp !cur
    in
    blocks := b :: !blocks;
    let succ =
      match b.Block.term with
      | Terminator.Fallthrough -> Some (Block.fall_addr b)
      | Terminator.Halt -> None
      | term -> (
        match pop () with
        | None ->
          (* The final branch's outcome was unknown to the encoder. *)
          if Block.last b <> end_addr then
            errorf "Compact_trace.decode: ran out of codes before %a" Addr.pp end_addr;
          None
        | Some tok -> (
          match term, tok with
          | Terminator.Cond tgt, Taken -> Some tgt
          | Terminator.Cond _, Not_taken -> Some (Block.fall_addr b)
          | (Terminator.Jump tgt | Terminator.Call tgt), Taken -> Some tgt
          | ( (Terminator.Return | Terminator.Indirect_jump | Terminator.Indirect_call),
              Indirect a ) -> Some a
          | _ ->
            errorf "Compact_trace.decode: code inconsistent with %a at %a" Terminator.pp term
              Addr.pp (Block.last b)))
    in
    if !tokens = [] && Block.last b = end_addr then begin
      final_next := succ;
      finished := true
    end
    else
      match succ with
      | Some a -> cur := a
      | None ->
        if Block.last b <> end_addr then
          errorf "Compact_trace.decode: walk stopped at %a but trace ends at %a" Addr.pp
            (Block.last b) Addr.pp end_addr;
        finished := true
  done;
  { Region.blocks = List.rev !blocks; final_next = !final_next }
