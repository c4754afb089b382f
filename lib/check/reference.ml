open Regionsel_isa
module Image = Regionsel_workload.Image
module Behavior = Regionsel_workload.Behavior
module Splitmix = Regionsel_prng.Splitmix
module Code_cache = Regionsel_engine.Code_cache
module Region = Regionsel_engine.Region

type step = { block : Block.t; taken : bool; next : Addr.t }

(* Behaviour states live in tables keyed by block start, created on first
   execution: each creation splits the root PRNG, so the creation order
   (and hence every site's stream) is the order the sites first run. *)
type t = {
  image : Image.t;
  program : Program.t;
  mutable pc : Addr.t;
  mutable stack : Addr.t list;
  conds : (Addr.t, Behavior.state) Hashtbl.t;
  indirects : (Addr.t, Behavior.indirect_state) Hashtbl.t;
  prng : Splitmix.t;
}

let create image ~seed =
  let program = image.Image.program in
  {
    image;
    program;
    pc = Program.entry program;
    stack = [];
    conds = Hashtbl.create 64;
    indirects = Hashtbl.create 8;
    prng = Splitmix.create ~seed;
  }

let cond_state t (b : Block.t) =
  match Hashtbl.find_opt t.conds b.Block.start with
  | Some s -> s
  | None ->
    let s = Behavior.make_state (Image.cond_spec t.image (Block.last b)) t.prng in
    Hashtbl.add t.conds b.Block.start s;
    s

let indirect_state t (b : Block.t) =
  match Hashtbl.find_opt t.indirects b.Block.start with
  | Some s -> s
  | None ->
    let s = Behavior.make_indirect (Image.indirect_spec t.image (Block.last b)) t.prng in
    Hashtbl.add t.indirects b.Block.start s;
    s

let step t =
  if Addr.is_none t.pc then None
  else begin
    let b = Program.block_at_exn t.program t.pc in
    let fall = Block.fall_addr b in
    let taken, next =
      match b.Block.term with
      | Terminator.Fallthrough -> (false, fall)
      | Terminator.Jump tgt -> (true, tgt)
      | Terminator.Cond tgt ->
        if Behavior.decide (cond_state t b) then (true, tgt) else (false, fall)
      | Terminator.Call tgt ->
        t.stack <- fall :: t.stack;
        (true, tgt)
      | Terminator.Indirect_jump -> (true, Behavior.choose (indirect_state t b))
      | Terminator.Indirect_call ->
        t.stack <- fall :: t.stack;
        (true, Behavior.choose (indirect_state t b))
      | Terminator.Return -> (
        match t.stack with
        | [] -> (true, Addr.none)
        | r :: rest ->
          t.stack <- rest;
          (true, r))
      | Terminator.Halt -> (false, Addr.none)
    in
    if not (Addr.is_none next || Program.is_block_start t.program next) then
      invalid_arg
        (Printf.sprintf "Reference.step: transfer from %s to %s, which is not a block start"
           (Addr.to_string b.Block.start) (Addr.to_string next));
    t.pc <- next;
    Some { block = b; taken; next }
  end

(* The interp snapshot section: pc, stack length and stack bottom first,
   the root PRNG limbs, then one presence flag per block id for the cond
   states and again for the indirect states, each present state followed
   by its own stream.  Decoded states are detached from the root PRNG, so
   the root limbs alone fix every future split. *)
let load_warm t r =
  let pc = Snap.int r in
  let bottom_up = Snap.list r Snap.int in
  let hi = Snap.tag r ~n:0x1_0000_0000 in
  let lo = Snap.tag r ~n:0x1_0000_0000 in
  let states tbl read =
    Hashtbl.reset tbl;
    Program.iter_blocks
      (fun b -> if Snap.bool r then Hashtbl.replace tbl b.Block.start (read b))
      t.program
  in
  states t.conds (fun b -> Behavior.read_state (Image.cond_spec t.image (Block.last b)) r);
  states t.indirects (fun b ->
      Behavior.read_indirect (Image.indirect_spec t.image (Block.last b)) r);
  Splitmix.set_state t.prng ~hi ~lo;
  t.pc <- pc;
  t.stack <- List.rev bottom_up

let dispatch cache program a =
  match Code_cache.dispatch cache (Program.block_id program a) with
  | Some r -> r
  | None -> Region.dummy

let next_region ~cache ~program ~region ~(block : Block.t) ~taken ~next =
  if region == Region.dummy then
    if taken then dispatch cache program next else Region.dummy
  else if Region.has_edge region ~src:block.Block.start ~dst:next then region
  else dispatch cache program next
