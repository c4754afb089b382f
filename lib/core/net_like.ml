open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

module type CONFIG = sig
  val name : string
  val backward_threshold : Params.t -> int
  val exit_threshold : Params.t -> int
end

module Make (C : CONFIG) : Policy.S = struct
  type recording = Idle | Pending of Addr.t | Active of Net_former.t

  type t = {
    ctx : Context.t;
    mutable recording : recording;
    exit_targets : unit Addr.Table.t;
        (** Targets first profiled via a cache exit get the exit threshold. *)
  }

  let name = C.name
  let create ctx = { ctx; recording = Idle; exit_targets = Addr.Table.create 256 }

  (* Checkpoint support.  [exit_targets] is a pure membership set (never
     iterated), so content equality is enough on restore. *)
  let save t emit =
    (match t.recording with
    | Idle -> emit 0
    | Pending a ->
      emit 1;
      emit a
    | Active former ->
      emit 2;
      Net_former.save former emit);
    (* Sorted: canonical bytes regardless of insertion history. *)
    Snap.emit_list emit emit
      (List.sort Addr.compare (Addr.Table.fold (fun a () acc -> a :: acc) t.exit_targets []))

  let load ctx r =
    let t = create ctx in
    (match Snap.tag r ~n:3 with
    | 0 -> ()
    | 1 -> t.recording <- Pending (Snap.int r)
    | _ -> t.recording <- Active (Net_former.load ~program:ctx.Context.program r));
    List.iter (fun a -> Addr.Table.replace t.exit_targets a ()) (Snap.list r Snap.int);
    t

  let threshold_for t tgt =
    if Addr.Table.mem t.exit_targets tgt then C.exit_threshold t.ctx.Context.params
    else C.backward_threshold t.ctx.Context.params

  (* Count one eligible execution of [tgt]; arm a recording on threshold. *)
  let bump t tgt =
    let c = Counters.incr t.ctx.Context.counters tgt in
    if c >= threshold_for t tgt && t.recording = Idle then begin
      Counters.release t.ctx.Context.counters tgt;
      Addr.Table.remove t.exit_targets tgt;
      t.recording <- Pending tgt
    end

  let advance_recording t block taken next =
    match t.recording with
    | Idle -> Policy.No_action
    | Pending entry ->
      if Addr.equal block.Block.start entry then begin
        let former = Net_former.start ~entry in
        t.recording <- Active former;
        match Net_former.feed former ~ctx:t.ctx ~block ~taken ~next with
        | Net_former.Continue -> Policy.No_action
        | Net_former.Done path ->
          t.recording <- Idle;
          Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ]
      end
      else begin
        (* Control did not reach the armed entry: abandon the recording. *)
        t.recording <- Idle;
        Policy.No_action
      end
    | Active former -> (
      match Net_former.feed former ~ctx:t.ctx ~block ~taken ~next with
      | Net_former.Continue -> Policy.No_action
      | Net_former.Done path ->
        t.recording <- Idle;
        Policy.Install [ Region.spec_of_path ~kind:Region.Trace path ])

  let install_entries = function
    | Policy.No_action -> Addr.Set.empty
    | Policy.Install specs ->
      List.fold_left (fun acc (s : Region.spec) -> Addr.Set.add s.Region.entry acc) Addr.Set.empty
        specs

  let handle t = function
    | Policy.Interp_block ib ->
      let block = ib.Policy.block and taken = ib.Policy.taken and next = ib.Policy.next in
      (* The option is only materialized while a recording is in flight;
         the steady (Idle) state stays allocation-free. *)
      let action =
        match t.recording with
        | Idle -> Policy.No_action
        | Pending _ | Active _ ->
          advance_recording t block taken (if Addr.is_none next then None else Some next)
      in
      if
        taken
        && (not (Addr.is_none next))
        && (not (Code_cache.mem t.ctx.Context.cache next))
        && (not (Addr.Set.mem next (install_entries action)))
        && Addr.is_backward ~src:(Block.last block) ~tgt:next
      then bump t next;
      action
    | Policy.Cache_exited { tgt; _ } ->
      if not (Addr.Table.mem t.exit_targets tgt) then
        if Counters.peek t.ctx.Context.counters tgt = 0 then
          Addr.Table.replace t.exit_targets tgt ();
      bump t tgt;
      Policy.No_action
    | Policy.Region_invalidated { entry } ->
      (* Profiling restarts from scratch for the retired entry. *)
      Addr.Table.remove t.exit_targets entry;
      Counters.release t.ctx.Context.counters entry;
      (match t.recording with
      | Pending e when Addr.equal e entry -> t.recording <- Idle
      | Idle | Pending _ | Active _ -> ());
      Policy.No_action
end
