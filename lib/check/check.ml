open Regionsel_isa
module Image = Regionsel_workload.Image
module Telemetry = Regionsel_telemetry.Telemetry
module Code_cache = Regionsel_engine.Code_cache
module Context = Regionsel_engine.Context
module Faults = Regionsel_engine.Faults
module Params = Regionsel_engine.Params
module Region = Regionsel_engine.Region
module Simulator = Regionsel_engine.Simulator
module Stats = Regionsel_engine.Stats

type violation = { step : int; rule : string; detail : string }

exception Check_violation of violation

let violation_to_string { step; rule; detail } =
  Printf.sprintf "invariant %S violated at step %d: %s" rule step detail

let () =
  Printexc.register_printer (function
    | Check_violation v -> Some (violation_to_string v)
    | _ -> None)

let fail ~step ~rule fmt =
  Printf.ksprintf (fun detail -> raise (Check_violation { step; rule; detail })) fmt

let audit_cache ?telemetry ~program cache ~step =
  (* The dispatch array is the cache's only index: every slot holds a live
     region (one whose entry slot holds it) that claims the slot's block. *)
  for id = 0 to Program.n_blocks program - 1 do
    match Code_cache.dispatch cache id with
    | None -> ()
    | Some r ->
      if not (Code_cache.is_live cache r) then
        fail ~step ~rule:"dispatch-live" "dispatch slot %d holds retired region #%d" id
          r.Region.id;
      let a = (Program.block_of_id program id).Block.start in
      if not (Addr.equal a r.Region.entry || Addr.Set.mem a r.Region.aux_entries) then
        fail ~step ~rule:"dispatch-claim"
          "dispatch slot %d (%s) held by region #%d, whose entry is %s and which claims \
           no aux entry there"
          id (Addr.to_string a) r.Region.id
          (Addr.to_string r.Region.entry)
  done;
  let live = Code_cache.regions cache in
  let n_live = List.length live in
  if n_live <> Code_cache.n_regions cache then
    fail ~step ~rule:"live-count" "%d regions are live but n_regions reports %d" n_live
      (Code_cache.n_regions cache);
  (* Link slots: no link outlives its target, and a link always agrees
     with the dispatch array (a linked jump lands exactly where a dispatch
     would have). *)
  List.iter
    (fun (r : Region.t) ->
      for slot = 0 to Region.n_link_slots r - 1 do
        match Region.link_target r slot with
        | None -> ()
        | Some tgt ->
          if not (Code_cache.is_live cache tgt) then
            fail ~step ~rule:"link-live" "region #%d slot %d links to retired region #%d"
              r.Region.id slot tgt.Region.id;
          (match Code_cache.dispatch cache slot with
          | Some d when d == tgt -> ()
          | Some d ->
            fail ~step ~rule:"link-dispatch"
              "region #%d slot %d links to region #%d but the slot dispatches to #%d"
              r.Region.id slot tgt.Region.id d.Region.id
          | None ->
            fail ~step ~rule:"link-dispatch"
              "region #%d slot %d links to region #%d but the slot dispatches nowhere"
              r.Region.id slot tgt.Region.id)
      done)
    live;
  (* FIFO tombstone accounting (the compaction bound). *)
  let fifo_len = Code_cache.fifo_length cache in
  let tombstones = Code_cache.fifo_tombstones cache in
  if fifo_len - tombstones <> n_live then
    fail ~step ~rule:"fifo-accounting"
      "FIFO holds %d entries with %d tombstones but %d regions are live" fifo_len
      tombstones n_live;
  if tombstones > max 8 n_live then
    fail ~step ~rule:"fifo-tombstones" "%d tombstones against %d live regions (bound %d)"
      tombstones n_live (max 8 n_live);
  (* Byte ledger. *)
  let live_bytes = List.fold_left (fun acc r -> acc + Region.cache_bytes r) 0 live in
  if Code_cache.bytes_used cache <> live_bytes then
    fail ~step ~rule:"bytes-accounting"
      "cache reports %d bytes used but the live regions sum to %d"
      (Code_cache.bytes_used cache) live_bytes;
  (* Step clock. *)
  if Code_cache.clock_regressions cache <> 0 then
    fail ~step ~rule:"clock-monotone" "set_now was handed a stale step %d time(s)"
      (Code_cache.clock_regressions cache);
  (* Quota bound: once installs and quota evictions have settled, the live
     footprint fits the tenant's quota (the multi-stream invariant). *)
  (match Code_cache.quota cache with
  | None -> ()
  | Some q ->
    if Code_cache.bytes_used cache > q then
      fail ~step ~rule:"quota-accounting"
        "cache holds %d bytes against a quota of %d" (Code_cache.bytes_used cache) q);
  (* Telemetry span ledger: open spans are exactly the live regions. *)
  match telemetry with
  | None -> ()
  | Some t ->
    List.iter
      (fun (r : Region.t) ->
        if not (Telemetry.span_open t ~id:r.Region.id) then
          fail ~step ~rule:"span-open" "live region #%d has no open telemetry span"
            r.Region.id)
      live;
    let open_spans = Telemetry.n_open_spans t in
    if open_spans <> n_live then
      fail ~step ~rule:"span-ledger"
        "telemetry has %d open spans but the cache holds %d live regions" open_spans n_live

(* The previous step, as the region rule needs it at the next one. *)
type last_step = {
  l_step : int;
  l_region : Region.t;
  l_block : Block.t;
  l_taken : bool;
  l_next : Addr.t;
  l_flushes : int;  (* [Code_cache.flushes] before the step's own work *)
}

let describe_region (r : Region.t) =
  if r == Region.dummy then "the interpreter"
  else Printf.sprintf "region #%d (entry %s)" r.Region.id (Addr.to_string r.Region.entry)

let checked_run ?(params = Params.default) ?(seed = 1L) ?telemetry ?(audit_every = 64)
    ?break_at ?on_window ?checkpoint ?restore ?record ?replay ~policy ~max_steps image =
  let t = match telemetry with Some t -> t | None -> Telemetry.create () in
  let program = image.Image.program in
  let shadow = Reference.create image ~seed in
  (* The fault schedule is a pure function of the run's inputs, so the
     steps it fires at are known up front. *)
  let fault_steps = Hashtbl.create 16 in
  Option.iter
    (fun profile ->
      let f = Faults.create ~profile ~seed ~program ~max_steps in
      while Faults.next_step f <> max_int do
        Hashtbl.replace fault_steps (Faults.next_step f) ();
        ignore (Faults.pop f : Faults.event)
      done)
    params.Params.faults;
  let cache_ref = ref None in
  let audit ~step =
    match !cache_ref with
    | None -> ()
    | Some cache -> audit_cache ~telemetry:t ~program cache ~step
  in
  let broken = ref false in
  let last = ref None in
  let check_region_rule ~step ~region cache =
    match !last with
    | None -> ()
    | Some l ->
      let expected =
        Reference.next_region ~cache ~program ~region:l.l_region ~block:l.l_block
          ~taken:l.l_taken ~next:l.l_next
      in
      (* A fault, a bailout or a flush during the previous step may retire
         the region the rule expects, or kick the run out of it. *)
      let relaxed =
        Hashtbl.mem fault_steps l.l_step || Code_cache.flushes cache <> l.l_flushes
      in
      if region != expected && not (relaxed && region == Region.dummy) then
        fail ~step ~rule:"region-rule"
          "block %s in %s went to %s: the run continued in %s but the reference rule \
           gives %s"
          (Addr.to_string l.l_block.Block.start)
          (describe_region l.l_region) (Addr.to_string l.l_next) (describe_region region)
          (describe_region expected)
  in
  let observer =
    {
      Simulator.on_context =
        (fun ctx ->
          let cache = ctx.Context.cache in
          cache_ref := Some cache;
          Code_cache.set_auditor cache (fun _op -> audit ~step:(Code_cache.now cache)));
      on_step =
        (fun ~step ~block ~taken ~next ~region ~believed ->
          (* Self-test corruption: desynchronize the indices once a live
             region exists, then let the audit below convict it. *)
          (match break_at with
          | Some at when (not !broken) && step >= at -> (
            match !cache_ref with
            | Some cache ->
              if Code_cache.unsafe_corrupt_for_tests cache then broken := true
            | None -> ())
          | Some _ | None -> ());
          (* Differential oracle: the reference interpreter is the ground
             truth for what the program executes. *)
          let sh =
            match Reference.step shadow with
            | Some sh -> sh
            | None ->
              fail ~step ~rule:"oracle-halt"
                "the run executed %s but the reference interpreter has halted"
                (Addr.to_string block.Block.start)
          in
          if not (Block.equal sh.Reference.block block) then
            fail ~step ~rule:"oracle-block"
              "the run executed block %s but the reference interpreter executed %s"
              (Addr.to_string block.Block.start)
              (Addr.to_string sh.Reference.block.Block.start);
          if sh.Reference.taken <> taken then
            fail ~step ~rule:"oracle-branch"
              "block %s: the run saw taken=%b but the reference interpreter saw %b"
              (Addr.to_string block.Block.start)
              taken sh.Reference.taken;
          if not (Addr.equal sh.Reference.next next) then
            fail ~step ~rule:"oracle-target"
              "block %s: the run continues at %s but the reference interpreter at %s"
              (Addr.to_string block.Block.start)
              (Addr.to_string next)
              (Addr.to_string sh.Reference.next);
          (* Region mode must believe it executed the block the
             interpreter actually executed. *)
          if (not (Addr.is_none believed)) && not (Addr.equal believed block.Block.start)
          then
            fail ~step ~rule:"region-position"
              "region mode believes it executed %s but the interpreter executed %s"
              (Addr.to_string believed)
              (Addr.to_string block.Block.start);
          (match !cache_ref with
          | None -> ()
          | Some cache ->
            check_region_rule ~step ~region cache;
            last :=
              Some
                {
                  l_step = step;
                  l_region = region;
                  l_block = block;
                  l_taken = taken;
                  l_next = next;
                  l_flushes = Code_cache.flushes cache;
                });
          if audit_every > 0 && step mod audit_every = 0 then audit ~step);
    }
  in
  (* Restoring a snapshot fast-forwards the run to its saved position; the
     reference interpreter must follow, or every subsequent step would
     "diverge".  The run's own interp section — already restored by the
     caller's hook — is replayed into the reference, which puts its pc,
     stack and every PRNG stream at exactly the restored position. *)
  let restore =
    Option.map
      (fun f (internals : Simulator.internals) ->
        f internals;
        match
          List.find_opt
            (fun (s : Simulator.section) -> String.equal s.Simulator.sec_name "interp")
            internals.Simulator.int_sections
        with
        | None -> ()
        | Some s ->
          Snap.decode (Snap.ints s.Simulator.sec_save) (Reference.load_warm shadow))
      restore
  in
  let result =
    Simulator.run ~params ~seed ~telemetry:(Some t) ~observer ?on_window ?checkpoint
      ?restore ?record ?replay ~policy ~max_steps image
  in
  let final = result.Simulator.stats.Stats.steps in
  audit ~step:final;
  Telemetry.finish t ~step:final;
  List.iter
    (fun (s : Telemetry.span) ->
      if s.Telemetry.retired_at < s.Telemetry.installed_at then
        fail ~step:final ~rule:"span-duration"
          "region #%d's span runs backwards: installed at %d, retired at %d"
          s.Telemetry.id s.Telemetry.installed_at s.Telemetry.retired_at)
    (Telemetry.spans t);
  let closed = List.length (Telemetry.spans t) in
  if closed <> Telemetry.n_installs t then
    fail ~step:final ~rule:"span-count"
      "telemetry recorded %d installs but closed %d spans" (Telemetry.n_installs t)
      closed;
  result
