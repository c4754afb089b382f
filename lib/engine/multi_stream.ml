(* The domain-sharded multi-stream scheduler; the determinism argument
   and the quota contract are in multi_stream.mli. *)

type tenant = {
  t_name : string;
  t_params : Params.t option;
  t_seed : int64 option;
  t_telemetry : Regionsel_telemetry.Telemetry.sink option;
  t_policy : (module Policy.S);
  t_max_steps : int;
  t_image : Regionsel_workload.Image.t;
}

let tenant ?params ?seed ?telemetry ~policy ~max_steps ~name image =
  {
    t_name = name;
    t_params = params;
    t_seed = seed;
    t_telemetry = telemetry;
    t_policy = policy;
    t_max_steps = max_steps;
    t_image = image;
  }

let name t = t.t_name

type outcome = {
  results : (string * Simulator.result) list;
      (** One per tenant, in submission order. *)
  rounds : int;
  quota_rejects : int;
  quota_evictions : int;
}

(* The max-min-fair quota computation, as a pure function of the barrier
   snapshot so it can be property-tested directly.

   [avail] splits into base shares of [avail / n] each, the division
   remainder going one byte apiece to the earliest tenants — every byte of
   the budget is granted; the old [avail / n] split silently dropped up to
   [n - 1] bytes per barrier.  Shares the under-base tenants are not using
   are pooled as slack and granted as extra headroom to the over-base
   ("hungry") ones, the slack division remainder again one byte apiece to
   the earliest hungry.  Conservation is exact by construction:

       sum quotas = avail + granted slack

   where granted slack is the pooled slack if anyone is hungry to take it,
   and 0 otherwise (unclaimed headroom stays with its under-base owners —
   their quota is the full base share either way). *)
let fair_split ~avail used =
  let n = Array.length used in
  if n = 0 then invalid_arg "Multi_stream.fair_split: no tenants";
  if avail < 0 then invalid_arg "Multi_stream.fair_split: negative budget";
  let fair = avail / n and rem = avail mod n in
  let base = Array.init n (fun i -> fair + if i < rem then 1 else 0) in
  let slack = ref 0 and n_hungry = ref 0 in
  Array.iteri
    (fun i u -> if u > base.(i) then incr n_hungry else slack := !slack + (base.(i) - u))
    used;
  let granted = if !n_hungry = 0 then 0 else !slack in
  let extra = if !n_hungry = 0 then 0 else !slack / !n_hungry in
  let extra_rem = if !n_hungry = 0 then 0 else !slack mod !n_hungry in
  let hungry_seen = ref 0 in
  let quotas =
    Array.mapi
      (fun i u ->
        if u > base.(i) then begin
          let bonus = if !hungry_seen < extra_rem then 1 else 0 in
          incr hungry_seen;
          base.(i) + extra + bonus
        end
        else base.(i))
      used
  in
  (quotas, granted)

(* Recompute per-tenant quotas from the barrier snapshot, in tenant order.

   Exhausted tenants keep their final cache untouched (their metrics are
   already decided); their footprint stays charged against the budget.  The
   rest is split by {!fair_split}.  Tightening below a tenant's footprint
   evicts through the quota layer — the cross-tenant pressure path.
   Aggregate footprint is therefore at most the budget at every barrier;
   between barriers it can transiently exceed it by at most the granted
   slack, reclaimed at the next barrier. *)
let rebalance ~budget sims =
  let active, frozen_bytes =
    Array.fold_left
      (fun (active, frozen) sim ->
        if Simulator.exhausted sim then (active, frozen + Simulator.cache_bytes_used sim)
        else (sim :: active, frozen))
      ([], 0) sims
  in
  let active = Array.of_list (List.rev active) in
  let n_active = Array.length active in
  if n_active > 0 then begin
    let avail = max 0 (budget - frozen_bytes) in
    let used = Array.map Simulator.cache_bytes_used active in
    let quotas, granted_slack = fair_split ~avail used in
    (* Barrier conservation: every available byte is granted exactly once,
       plus the slack explicitly granted on top.  A violation here is a
       scheduler bug, not tenant behaviour — fail loudly. *)
    assert (Array.fold_left ( + ) 0 quotas = avail + granted_slack);
    Array.iteri (fun i sim -> Simulator.set_cache_quota sim (Some quotas.(i))) active
  end

(* The incremental scheduler the daemon drives: the same batch-barrier
   rounds [run] performs, but with tenants admitted and retired while the
   engine runs, typed admission rejects, and per-tenant step bounds so an
   ingest-fed tenant never advances past its buffered events (which would
   falsely read as a program halt). *)
module Engine = struct
  type admission_reject =
    | Tenants_saturated of { limit : int }
    | Budget_saturated of { budget : int; tenants : int; floor : int }
    | Duplicate_tenant of string

  let reject_to_string = function
    | Tenants_saturated { limit } ->
      Printf.sprintf "tenant slots saturated (limit %d)" limit
    | Budget_saturated { budget; tenants; floor } ->
      Printf.sprintf
        "cache budget saturated (%d bytes over %d tenants leaves fair shares under the \
         %d-byte floor)"
        budget (tenants + 1) floor
    | Duplicate_tenant name -> Printf.sprintf "tenant %S already admitted" name

  type t = {
    e_pool : Domain_pool.t;  (* parked between rounds; joined by [close] *)
    e_batch_steps : int;
    e_budget : int option;
    e_quota_floor : int;
    e_max_tenants : int option;
    e_on_barrier : (round:int -> (string * Simulator.t) array -> unit) option;
    mutable e_members : (string * Simulator.t) list;  (* submission order *)
    mutable e_rounds : int;
  }

  let create ?n_domains ?(batch_steps = 4096) ?budget_bytes ?(quota_floor = 0) ?max_tenants
      ?on_barrier () =
    if batch_steps <= 0 then
      invalid_arg "Multi_stream.Engine.create: batch_steps must be positive";
    (match budget_bytes with
    | Some b when b < 0 -> invalid_arg "Multi_stream.Engine.create: negative budget"
    | Some _ | None -> ());
    if quota_floor < 0 then invalid_arg "Multi_stream.Engine.create: negative quota floor";
    {
      e_pool = Domain_pool.create ?n_domains ();
      e_batch_steps = batch_steps;
      e_budget = budget_bytes;
      e_quota_floor = quota_floor;
      e_max_tenants = max_tenants;
      e_on_barrier = on_barrier;
      e_members = [];
      e_rounds = 0;
    }

  let close t = Domain_pool.close t.e_pool

  let member_sims t = Array.of_list (List.map snd t.e_members)

  let rebalance_now t =
    match t.e_budget with
    | Some budget when t.e_members <> [] -> rebalance ~budget (member_sims t)
    | Some _ | None -> ()

  (* Membership changes rebalance immediately: a new tenant gets its fair
     share before its first batch (the initial split [run] used to apply
     once up front), and a departing tenant's footprint goes back to the
     pool at the moment it leaves, not a round later. *)
  let push t ~name sim =
    t.e_members <- t.e_members @ [ (name, sim) ];
    rebalance_now t

  let admit t ~name sim =
    let n = List.length t.e_members in
    if List.mem_assoc name t.e_members then Error (Duplicate_tenant name)
    else
      match t.e_max_tenants with
      | Some limit when n >= limit -> Error (Tenants_saturated { limit })
      | Some _ | None -> (
        match t.e_budget with
        | Some budget when t.e_quota_floor > 0 && budget / (n + 1) < t.e_quota_floor ->
          Error (Budget_saturated { budget; tenants = n; floor = t.e_quota_floor })
        | Some _ | None ->
          push t ~name sim;
          Ok ())

  let retire t ~name =
    match List.assoc_opt name t.e_members with
    | None -> None
    | Some sim ->
      t.e_members <- List.filter (fun (n, _) -> not (String.equal n name)) t.e_members;
      rebalance_now t;
      Some sim

  let tenants t = t.e_members
  let find t name = List.assoc_opt name t.e_members
  let rounds t = t.e_rounds

  let round t ~limit =
    let participants =
      List.filter_map
        (fun (name, sim) ->
          let upto = min (limit ~name ~sim) (Simulator.steps sim + t.e_batch_steps) in
          if Simulator.exhausted sim || upto <= Simulator.steps sim then None
          else Some ((name, sim), upto))
        t.e_members
    in
    if participants = [] then false
    else begin
      t.e_rounds <- t.e_rounds + 1;
      Domain_pool.iter t.e_pool
        (fun ((_, sim), upto) -> Simulator.advance sim ~upto)
        (Array.of_list participants);
      rebalance_now t;
      (* Barrier observation (metrics sampling) runs last, on the main
         domain, over this round's participants in submission order —
         after rebalancing, so quota evictions land in the window that
         caused them.  Pure observation: what the hook sees is a pure
         function of the barrier states, hence identical whatever
         [n_domains]. *)
      (match t.e_on_barrier with
      | None -> ()
      | Some fn -> fn ~round:t.e_rounds (Array.of_list (List.map fst participants)));
      true
    end
end

let run ?n_domains ?(batch_steps = 4096) ?budget_bytes ?on_barrier tenants =
  (* More domains than tenants would only park: cap the pool at the fleet. *)
  let n_domains =
    min (List.length tenants)
      (match n_domains with Some d -> d | None -> Domain_pool.default_n_domains ())
  in
  let eng = Engine.create ~n_domains ~batch_steps ?budget_bytes ?on_barrier () in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  let sims =
    List.map
      (fun t ->
        let sim =
          Simulator.create ?params:t.t_params ?seed:t.t_seed ?telemetry:t.t_telemetry
            ~policy:t.t_policy ~max_steps:t.t_max_steps t.t_image
        in
        (* [push], not [admit]: a batch run has no admission policy, and
           its contract tolerates duplicate tenant names. *)
        Engine.push eng ~name:t.t_name sim;
        sim)
      tenants
  in
  while Engine.round eng ~limit:(fun ~name:_ ~sim:_ -> max_int) do
    ()
  done;
  (* Finalization (end-of-run checkpoints, edge-profile flushes) happens
     on the main domain, in tenant order. *)
  let results = List.map2 (fun t sim -> (t.t_name, Simulator.finish sim)) tenants sims in
  let total count =
    List.fold_left
      (fun acc (_, (r : Simulator.result)) -> acc + count r.Simulator.ctx.Context.cache)
      0 results
  in
  {
    results;
    rounds = Engine.rounds eng;
    quota_rejects = total Code_cache.quota_rejects;
    quota_evictions = total Code_cache.quota_evictions;
  }
