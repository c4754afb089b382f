(* The layer ledger of the traced run.

   Every layer is timed from outside, through calls into its module's
   public functions, on one fixed cell.  Layers that only run inside
   [Simulator.run] cannot be wrapped there; they are priced by paired
   trials (the same run with and without the layer's hook, alternating
   which runs first) and by the benchmark-side timing wrapper around the
   policy module. *)

module Simulator = Regionsel_engine.Simulator
module Interp = Regionsel_engine.Interp
module Branch_stream = Regionsel_engine.Branch_stream
module Edge_profile = Regionsel_engine.Edge_profile
module Multi_stream = Regionsel_engine.Multi_stream
module Policy = Regionsel_engine.Policy
module Region = Regionsel_engine.Region
module Program = Regionsel_isa.Program
module Block = Regionsel_isa.Block
module Run_metrics = Regionsel_metrics.Run_metrics
module Metrics = Regionsel_obs.Metrics
module Telemetry = Regionsel_telemetry.Telemetry
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Proto = Regionsel_serve.Proto
module Client = Regionsel_serve.Client
module Compact_trace = Regionsel_core.Compact_trace

(* gcc under combined LEI: the lowest hit rate of the suite, and trace
   combination exercises the compact-trace codec. *)
let ledger_cell = ("gcc", "combined-lei")
let ledger_events = 500_000

(* Daemon sessions in the ledger; every second one per slot is cut and
   resumed, so [client.resume_p50_ms] rests on at least ten resumes. *)
let ledger_sessions = 24

let trials = 5
let now = Spans.now_ns

let time f =
  let t0 = now () in
  let r = f () in
  (now () - t0, r)

let median_ns ?(n = trials) f = Pstats.median (List.init n (fun _ -> float_of_int (fst (time f))))

(* Median of [b - a] over paired trials, alternating which arm runs
   first (ABAB/BABA), so drift on the host cancels. *)
let paired_diff_ns ?(n = trials) a b =
  Pstats.median
    (List.init n (fun i ->
         if i mod 2 = 0 then begin
           let ta = fst (time a) in
           let tb = fst (time b) in
           float_of_int (tb - ta)
         end
         else begin
           let tb = fst (time b) in
           let ta = fst (time a) in
           float_of_int (tb - ta)
         end))

type policy_acc = { mutable calls : int; mutable ns : int; mutable installs : int }

(* The benchmark-side timing wrapper: the same policy under the same
   name, with every [handle] call timed and counted. *)
let timed_policy (module P : Policy.S) acc : (module Policy.S) =
  (module struct
    type t = P.t

    let name = P.name
    let create = P.create

    let handle t ev =
      let t0 = now () in
      let a = P.handle t ev in
      acc.ns <- acc.ns + (now () - t0);
      acc.calls <- acc.calls + 1;
      (match a with
      | Policy.Install specs -> acc.installs <- acc.installs + List.length specs
      | Policy.No_action -> ());
      a

    let save = P.save
    let load = P.load
  end)

(* Cost of the two clock reads the wrapper adds around each call. *)
let clock_pair_ns () =
  let n = 200_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    let t0 = now () in
    acc := !acc + (now () - t0)
  done;
  float_of_int !acc /. float_of_int n

(* A 200-block executed path, as trace combination stores them. *)
let sample_path image ~seed =
  let interp = Interp.create image ~seed in
  let st = Interp.make_step () in
  let blocks = ref [] in
  for _ = 1 to 200 do
    if Interp.step_into interp st then blocks := Interp.block interp st :: !blocks
  done;
  { Region.blocks = List.rev !blocks; final_next = None }

let count_tenants prom =
  let key = "tenant=\"" in
  let seen = Hashtbl.create 64 in
  let kl = String.length key and n = String.length prom in
  let i = ref 0 in
  while !i + kl <= n do
    if String.sub prom !i kl = key then begin
      let j = try String.index_from prom (!i + kl) '"' with Not_found -> n in
      Hashtbl.replace seen (String.sub prom (!i + kl) (j - !i - kl)) ();
      i := j
    end
    else incr i
  done;
  Hashtbl.length seen

let status_rounds text =
  List.find_map
    (fun line -> try Some (Scanf.sscanf line "rounds %d" Fun.id) with _ -> None)
    (String.split_on_char '\n' text)

(* [add name value unit] receives each metric; [check what ok] each
   output compared against its reference. *)
let run ~(env : Workloads.env) ~(daemon : Daemon.t) ~add ~check =
  let cell = Cells.make ~seed:env.Workloads.seed ~budget:ledger_events 0 ledger_cell in
  let image = Cells.image cell and program = Cells.program cell in
  let reference = Cells.reference cell in
  let events, recorded_json = Cells.record cell in
  check "ledger recording run" (String.equal recorded_json reference);
  let n = float_of_int (Branch_stream.length events) in
  let per_event ns = ns /. n in
  let dir = Host.fresh_dir ~root:env.Workloads.root "ledger" in
  add "workload.image_ms" (Cells.image_ms [ cell ]) "ms";
  (* engine.interp: the bare step loop. *)
  let interp_ns =
    median_ns (fun () ->
        let it = Interp.create image ~seed:cell.Cells.seed in
        let st = Interp.make_step () in
        let k = ref 0 in
        while !k < ledger_events && Interp.step_into it st do
          incr k
        done)
  in
  add "interp.ns_per_step" (per_event interp_ns) "ns";
  (* engine.branch_stream, then + edge profile. *)
  let pull ~lookup ~edge () =
    let s = Branch_stream.of_events events and st = Interp.make_step () in
    let ep = Edge_profile.create () in
    while Branch_stream.next_into s st do
      if lookup then begin
        let src = (Program.block_of_id program st.Interp.block_id).Block.start in
        if edge then Edge_profile.record ep ~src ~dst:st.Interp.next
        else ignore (Sys.opaque_identity src)
      end
    done
  in
  add "branch_stream.ns_per_event" (per_event (median_ns (pull ~lookup:false ~edge:false))) "ns";
  add "edge_profile.ns_per_record"
    (per_event (paired_diff_ns (pull ~lookup:true ~edge:false) (pull ~lookup:true ~edge:true)))
    "ns";
  (* core policies, through the timing wrapper. *)
  let acc = { calls = 0; ns = 0; installs = 0 } in
  let wrapped = Cells.run ~policy:(timed_policy cell.Cells.policy acc) cell in
  check "timed-policy run" (String.equal (Cells.json_of_result wrapped) reference);
  let policy_ns = Float.max 0.0 (float_of_int acc.ns -. (float_of_int acc.calls *. clock_pair_ns ())) in
  add "policy.handle_ns" (policy_ns /. float_of_int (max 1 acc.calls)) "ns";
  add "policy.handle_calls" (float_of_int acc.calls) "count";
  add "policy.installs" (float_of_int acc.installs) "count";
  (* engine.simulator / code_cache / region. *)
  let live_ns = median_ns (fun () -> Cells.run cell) in
  let replay_ns = median_ns (fun () -> Cells.run ~replay:events cell) in
  add "simulator.live_ns_per_event" (per_event live_ns) "ns";
  add "simulator.replay_ns_per_event" (per_event replay_ns) "ns";
  add "simulator.self_ns_per_event" (per_event (live_ns -. interp_ns -. policy_ns)) "ns";
  (* Allocation per step: the slope between a half-length and a full run,
     so per-run set-up allocation cancels. *)
  let words c =
    let w0 = Gc.minor_words () in
    let r = Cells.run c in
    (Gc.minor_words () -. w0, r)
  in
  let half_words, _ = words { cell with Cells.budget = ledger_events / 2 } in
  let full_words, result = words cell in
  add "simulator.minor_words_per_event"
    ((full_words -. half_words) /. float_of_int (ledger_events - (ledger_events / 2)))
    "words";
  add "edge_profile.flushes" (float_of_int (Edge_profile.flushes result.Simulator.edges)) "count";
  let m = Run_metrics.of_result result in
  add "code_cache.hit_rate" m.Run_metrics.hit_rate "ratio";
  add "code_cache.regions" (float_of_int m.Run_metrics.n_regions) "count";
  add "code_cache.link_hit_ratio"
    (float_of_int m.Run_metrics.link_hits /. float_of_int (max 1 m.Run_metrics.region_transitions))
    "ratio";
  add "region.node_steps" (float_of_int m.Run_metrics.node_steps) "count";
  add "code_cache.install_rejects" (float_of_int m.Run_metrics.install_rejects) "count";
  add "run_metrics.of_result_ms" (median_ns (fun () -> Run_metrics.of_result result) /. 1e6) "ms";
  (* obs.metrics: paired on/off window hook, then the export. *)
  let metered () =
    let r = Metrics.create ~labels:[ ("tenant", "ledger") ] () in
    let res = Cells.run ~on_window:(Metrics.hook r) cell in
    Metrics.finalize r res;
    (r, res)
  in
  add "obs.window_ns_per_event"
    (per_event (paired_diff_ns (fun () -> ignore (Cells.run cell)) (fun () -> ignore (metered ()))))
    "ns";
  let recorder, metered_result = metered () in
  check "metered run" (String.equal (Cells.json_of_result metered_result) reference);
  let windows = Metrics.windows recorder in
  add "obs.prom_ms" (median_ns (fun () -> Metrics.to_prometheus windows) /. 1e6) "ms";
  (* telemetry: paired with/without a sink. *)
  let traced () =
    let t = Telemetry.create () in
    ignore (Cells.run ~telemetry:(Some t) cell);
    t
  in
  add "telemetry.ns_per_event"
    (per_event (paired_diff_ns (fun () -> ignore (Cells.run cell)) (fun () -> ignore (traced ()))))
    "ns";
  add "telemetry.dropped" (float_of_int (Telemetry.n_dropped (traced ()))) "count";
  (* persist.event_log over core.bitbuf. *)
  let seed = cell.Cells.seed in
  let encoded = Event_log.encode ~program ~seed events in
  add "event_log.encode_ns_per_event"
    (per_event (median_ns (fun () -> Event_log.encode ~program ~seed events)))
    "ns";
  add "event_log.decode_ns_per_event"
    (per_event (median_ns (fun () -> Event_log.decode encoded ~program ~seed)))
    "ns";
  check "event_log decode" (Branch_stream.equal (Event_log.decode encoded ~program ~seed) events);
  add "event_log.bytes_per_event" (float_of_int (Bytes.length encoded) /. n) "bytes";
  let path = Filename.concat dir "ledger.revl" in
  add "event_log.write_file_ms"
    (median_ns (fun () -> Event_log.write_file ~path ~program ~seed events) /. 1e6)
    "ms";
  add "event_log.read_file_ms" (median_ns (fun () -> Event_log.read_file ~path ~program ~seed) /. 1e6) "ms";
  let total = Branch_stream.length events in
  let batch_encode () =
    List.init ((total + 4095) / 4096) (fun k ->
        let pos = k * 4096 in
        Event_log.encode_batch ~program events ~pos ~len:(min 4096 (total - pos)))
  in
  let bodies = batch_encode () in
  let batch_decode () =
    let into = Branch_stream.recorder () in
    List.iter (fun b -> ignore (Event_log.decode_batch b ~program ~into)) bodies;
    into
  in
  add "event_log.encode_batch_ns_per_event" (per_event (median_ns batch_encode)) "ns";
  add "event_log.decode_batch_ns_per_event" (per_event (median_ns batch_decode)) "ns";
  check "event_log batches" (Branch_stream.equal (batch_decode ()) events);
  (* The record and replay halves of a round trip on this cell. *)
  let record_ns =
    median_ns ~n:3 (fun () ->
        let ev = Branch_stream.recorder () in
        ignore (Cells.run ~record:ev cell);
        Event_log.write_file ~path ~program ~seed ev)
  in
  let replay_file_ns =
    median_ns ~n:3 (fun () -> Cells.run ~replay:(Event_log.read_file ~path ~program ~seed) cell)
  in
  add "revl.record_events_per_s" (n /. (record_ns /. 1e9)) "events/s";
  add "revl.replay_events_per_s" (n /. (replay_file_ns /. 1e9)) "events/s";
  (* core.compact_trace, per trace. *)
  let sample = sample_path image ~seed in
  let trace = Compact_trace.encode sample in
  let reps = 1000 in
  add "compact_trace.encode_ns"
    (median_ns (fun () ->
         for _ = 1 to reps do
           ignore (Compact_trace.encode sample)
         done)
    /. float_of_int reps)
    "ns";
  add "compact_trace.decode_ns"
    (median_ns (fun () ->
         for _ = 1 to reps do
           ignore (Compact_trace.decode program trace)
         done)
    /. float_of_int reps)
    "ns";
  add "compact_trace.observed_bytes_high_water"
    (float_of_int m.Run_metrics.observed_bytes_high_water)
    "bytes";
  (* persist.persist: snapshot at mid-run, restore into a fresh run. *)
  let policy_name = cell.Cells.policy_name and policy = cell.Cells.policy in
  let snap = Filename.concat dir "ledger.snapshot" in
  let sim = Simulator.create ~seed ~policy ~max_steps:ledger_events image in
  Simulator.advance sim ~upto:(ledger_events / 2);
  let internals = Simulator.internals sim in
  add "persist.save_ms"
    (median_ns (fun () -> Persist.save_file ~path:snap ~seed ~policy:policy_name internals) /. 1e6)
    "ms";
  add "persist.snapshot_bytes" (float_of_int (Unix.stat snap).Unix.st_size) "bytes";
  let restore () =
    let report = ref None in
    let s =
      Simulator.create ~seed ~policy ~max_steps:ledger_events
        ~restore:(fun i -> report := Some (Persist.restore_file ~path:snap ~seed ~policy:policy_name i))
        image
    in
    (s, !report)
  in
  add "persist.restore_ms" (median_ns restore /. 1e6) "ms";
  let restored, report = restore () in
  let degraded = match report with Some r -> List.length r.Persist.degraded | None -> -1 in
  add "persist.degraded_sections" (float_of_int degraded) "count";
  check "restore-and-continue run"
    (String.equal (Cells.json_of_result (Simulator.finish restored)) reference);
  (* serve.proto: Events frames, encoded and reassembled. *)
  let frames = List.map (fun b -> Proto.encode (Proto.Events b)) bodies in
  let n_frames = float_of_int (List.length frames) in
  add "proto.encode_ns_per_frame"
    (median_ns (fun () -> List.iter (fun b -> ignore (Proto.encode (Proto.Events b))) bodies)
    /. n_frames)
    "ns";
  add "proto.decode_ns_per_frame"
    (median_ns (fun () ->
         let d = Proto.Dechunker.create () in
         List.iter
           (fun f ->
             Proto.Dechunker.feed d f ~pos:0 ~len:(Bytes.length f);
             match Proto.Dechunker.next d with
             | Some (Proto.Events _) -> ()
             | _ -> failwith "Dechunker lost an Events frame")
           frames)
    /. n_frames)
    "ns";
  (* serve.client / serve.server: instrumented sessions of this cell. *)
  let s =
    Workloads.sessions ~resume_every:2 ~d:daemon ~cells:[ cell ] ~slices:[ events ]
      ~refs:[ reference ] ~trace:true ~instrumented:true ~tenant_prefix:"ledger-"
      ~count:ledger_sessions ()
  in
  let sessions = List.length s.Workloads.loop.Workloads.lat_ms in
  let fresh = float_of_int (max 1 (sessions - List.length s.Workloads.resume_ms)) in
  check "daemon sessions" (s.Workloads.loop.Workloads.failed = 0);
  let tm = s.Workloads.timing in
  add "client.hello_ms" (float_of_int tm.Daemon.hello_ns /. fresh /. 1e6) "ms";
  add "client.send_wait_frac"
    (float_of_int tm.Daemon.write_ns
    /. float_of_int (max 1 (tm.Daemon.hello_ns + tm.Daemon.send_ns + tm.Daemon.fin_ns)))
    "ratio";
  add "client.fin_result_ms" (float_of_int tm.Daemon.fin_ns /. fresh /. 1e6) "ms";
  let p50 = function [] -> nan | xs -> Pstats.median xs in
  add "client.resume_p50_ms" (p50 s.Workloads.resume_ms) "ms";
  add "client.resume_samples" (float_of_int (List.length s.Workloads.resume_ms)) "count";
  add "client.ctrl_p50_ms" (p50 s.Workloads.ctrl_ms) "ms";
  let rounds =
    match Client.ctrl ~socket_path:daemon.Daemon.socket "status" with
    | Ok text -> Option.value (status_rounds text) ~default:(-1)
    | Error _ -> -1
  in
  add "server.rounds" (float_of_int rounds) "count";
  let in_process_ns = median_ns ~n:3 (fun () -> Cells.run ~replay:(batch_decode ()) cell) in
  add "server.overhead_ratio" (p50 s.Workloads.loop.Workloads.lat_ms /. (in_process_ns /. 1e6)) "ratio";
  add "server.tenant_series" (float_of_int (count_tenants s.Workloads.last_prom)) "count";
  add "server.rejects" (float_of_int (List.fold_left (fun a (_, k) -> a + k) 0 s.Workloads.rejects)) "count";
  (* engine.multi_stream: two tenants over two domains against one. *)
  let aggregate k =
    let t =
      median_ns ~n:3 (fun () ->
          Multi_stream.run ~n_domains:k
            (List.init k (fun i ->
                 Multi_stream.tenant ~seed:(Int64.add seed (Int64.of_int i)) ~policy
                   ~max_steps:ledger_events ~name:(Printf.sprintf "t%d" i) image)))
    in
    float_of_int (k * ledger_events) /. t
  in
  let one = aggregate 1 in
  add "multi_stream.speedup_2" (aggregate 2 /. one) "ratio";
  s.Workloads.rejects
