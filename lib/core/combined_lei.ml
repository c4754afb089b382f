open Regionsel_isa
module Policy = Regionsel_engine.Policy
module Context = Regionsel_engine.Context
module Code_cache = Regionsel_engine.Code_cache
module Counters = Regionsel_engine.Counters
module Params = Regionsel_engine.Params

type t = { ctx : Context.t; store : Observation_store.t; buf : History_buffer.t }

let name = "combined-lei"

let create (ctx : Context.t) =
  {
    ctx;
    store = Observation_store.create ctx.Context.gauges;
    buf = History_buffer.create ~capacity:ctx.Context.params.Params.lei_buffer_size;
  }

let t_start t = t.ctx.Context.params.Params.combined_lei_start
let t_prof t = t.ctx.Context.params.Params.combine_t_prof

(* Checkpoint support. *)
let save t emit =
  Observation_store.save t.store emit;
  History_buffer.save t.buf emit

let load ctx r =
  let t = create ctx in
  Observation_store.load ~program:ctx.Context.program t.store r;
  History_buffer.load t.buf r;
  t

let observe t ~tgt ~old_seq =
  let path = Lei_former.form ~ctx:t.ctx ~buf:t.buf ~start:tgt ~after_seq:old_seq in
  History_buffer.truncate_after t.buf ~seq:old_seq;
  (* A path that does not walk — a restored history buffer whose run
     resumed elsewhere — is dropped rather than stored. *)
  match Option.map Compact_trace.encode path with
  | None | (exception Invalid_argument _) -> Policy.No_action
  | Some trace ->
    Observation_store.record t.store trace;
    if Observation_store.count t.store tgt >= t_prof t then begin
      let observations = Observation_store.take t.store tgt in
      Counters.release t.ctx.Context.counters tgt;
      match Combine.build_region t.ctx ~entry:tgt ~observations with
      | Some spec -> Policy.Install [ spec ]
      | None -> Policy.No_action
    end
    else Policy.No_action

(* LEI's Figure 5 algorithm with the Figure 13 thresholds: counted cycle
   completions beyond [T_start] each record one observed cyclic trace. *)
let on_taken_branch t ~src ~tgt ~is_exit =
  let old_seq = History_buffer.find_seq t.buf tgt in
  let old_follows_exit =
    old_seq > 0 && History_buffer.follows_exit_at t.buf ~seq:old_seq
  in
  ignore (History_buffer.insert t.buf ~src ~tgt ~follows_exit:is_exit);
  if old_seq = 0 then Policy.No_action
  else if Addr.is_backward ~src ~tgt || old_follows_exit then begin
    let c = Counters.incr t.ctx.Context.counters tgt in
    if c > t_start t then observe t ~tgt ~old_seq else Policy.No_action
  end
  else Policy.No_action

let handle t = function
  | Policy.Interp_block ib ->
    let tgt = ib.Policy.next in
    if ib.Policy.taken && not (Addr.is_none tgt) then
      if Code_cache.mem t.ctx.Context.cache tgt then Policy.No_action
      else on_taken_branch t ~src:(Block.last ib.Policy.block) ~tgt ~is_exit:false
    else Policy.No_action
  | Policy.Cache_exited { src; tgt; _ } -> on_taken_branch t ~src ~tgt ~is_exit:true
  | Policy.Region_invalidated { entry } ->
    (* Drop stored observations and the cycle counter for the retired
       entry; the history buffer ages out on its own. *)
    if Observation_store.count t.store entry > 0 then
      ignore (Observation_store.take t.store entry);
    Counters.release t.ctx.Context.counters entry;
    Policy.No_action
