(* The three workloads.  Each is a closed loop driven from this process:
   set up (images, references, recordings, daemon), then run operations
   back to back for a fixed time, checking every output against its
   reference. *)

module Client = Regionsel_serve.Client
module Proto = Regionsel_serve.Proto
module Event_log = Regionsel_persist.Event_log
module Branch_stream = Regionsel_engine.Branch_stream

type env = {
  seed : int;
  corrupt : bool;  (** Corrupt every reference: the failure drill. *)
  daemon_exe : string;
  root : string;  (** Scratch space inside the checkout. *)
}

(* What one timed loop observed. *)
type loop = {
  mutable ops : int;
  mutable failed : int;
  mutable lat_ms : float list;  (** One per operation. *)
  mutable events : int;  (** Events behind the correct operations. *)
  mutable wall_s : float;
  mutable recorders : Spans.t list;
  mutable extra : (string * float list) list;
      (** Workload-specific samples by name, for provenance. *)
}

let new_loop () =
  { ops = 0; failed = 0; lat_ms = []; events = 0; wall_s = 0.0; recorders = []; extra = [] }

let add_extra l name x =
  let xs = Option.value (List.assoc_opt name l.extra) ~default:[] in
  l.extra <- (name, x :: xs) :: List.remove_assoc name l.extra

(* Several loops of one workload read as one: latencies concatenated,
   counts and times summed. *)
let pool loops =
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 loops in
  {
    ops = sum (fun l -> l.ops);
    failed = sum (fun l -> l.failed);
    lat_ms = List.concat_map (fun l -> l.lat_ms) loops;
    events = sum (fun l -> l.events);
    wall_s = List.fold_left (fun acc l -> acc +. l.wall_s) 0.0 loops;
    recorders = List.concat_map (fun l -> l.recorders) loops;
    extra =
      List.concat_map (fun l -> List.map fst l.extra) loops
      |> List.sort_uniq String.compare
      |> List.map (fun name ->
             (name, List.concat_map (fun l -> Option.value (List.assoc_opt name l.extra) ~default:[]) loops));
  }

(* Events behind the correct operations over the loop's wall time: the
   throughput a user of the loop sees, every operation's time included. *)
let events_per_s l = float_of_int l.events /. l.wall_s

let log_failure what e = Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* One checked operation: [f] returns the output to compare against
   [expected] and the events behind it, or raises. *)
let checked l ~what ~expected f =
  let t0 = Unix.gettimeofday () in
  let ok, events =
    match f () with
    | out, events ->
      let same = String.equal out expected in
      if not same then Printf.eprintf "perfbench: %s output differs from its reference\n%!" what;
      (same, events)
    | exception e ->
      log_failure what e;
      (false, 0)
  in
  l.ops <- l.ops + 1;
  l.lat_ms <- ((Unix.gettimeofday () -. t0) *. 1e3) :: l.lat_ms;
  if ok then l.events <- l.events + events else l.failed <- l.failed + 1

type prepared = {
  setup_s : float;  (** The set-up whose state the loop uses. *)
  setup_again : unit -> float;  (** Another set-up, timed and disposed of. *)
  run : trace:bool -> seconds:float -> min_ops:int -> loop;
  peak_rss_mb : unit -> float;
  finish : unit -> unit;
}

(* One set-up, timed, and a closure that repeats it, timing and disposing
   of each repetition.  The images behind [cells] are built once per
   process, before the first set-up: their build time is added to every
   repetition. *)
let timed_setup ?(dispose = ignore) ~cells f =
  let image_s = Cells.image_ms cells /. 1e3 in
  let timed () =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (Unix.gettimeofday () -. t0 +. image_s, x)
  in
  let setup_s, x = timed () in
  let again () =
    let secs, y = timed () in
    dispose y;
    secs
  in
  (setup_s, x, again)

let until_done ~seconds ~min_ops l =
  let t_start = Unix.gettimeofday () in
  fun () -> Unix.gettimeofday () -. t_start < seconds || l.ops < min_ops

(* ---- live-matrix ---- *)

(* All seven policies; gcc has the lowest hit rate, eon the most regions,
   mcf's cycle overflows the history buffer, perlbmk dispatches
   indirectly. *)
let live_cells =
  [
    ("gzip", "net");
    ("gcc", "combined-lei");
    ("mcf", "lei");
    ("perlbmk", "combined-net");
    ("twolf", "combined-lei");
    ("vortex", "mojo");
    ("eon", "boa");
    ("bzip2", "jit-method");
  ]

let live_matrix env =
  let cells = List.mapi (Cells.make ~seed:env.seed) live_cells in
  let setup_s, refs, setup_again =
    timed_setup ~cells (fun () -> List.map Cells.reference cells)
  in
  let refs = if env.corrupt then List.map Cells.corrupt refs else refs in
  let run ~trace ~seconds ~min_ops =
    let l = new_loop () and spans = Spans.create trace in
    l.recorders <- [ spans ];
    let t_start = Unix.gettimeofday () in
    let continue = until_done ~seconds ~min_ops l in
    while continue () do
      List.iter2
        (fun c expected ->
          let job = l.ops in
          checked l ~what:(Cells.label c) ~expected (fun () ->
              Spans.with_span spans ~job "job.cell" (fun () ->
                  let r = Spans.with_span spans ~job "simulator.run" (fun () -> Cells.run c) in
                  ( Spans.with_span spans ~job "run_metrics.of_result" (fun () ->
                        Cells.json_of_result r),
                    r.Cells.Simulator.stats.steps ))))
        cells refs
    done;
    l.wall_s <- Unix.gettimeofday () -. t_start;
    l
  in
  { setup_s; setup_again; run; peak_rss_mb = (fun () -> Host.vm_hwm_mb "self"); finish = ignore }

(* ---- revl-roundtrip ---- *)

let slice_cells = [ ("gzip", "net"); ("gcc", "combined-lei"); ("mcf", "lei"); ("twolf", "lei") ]

(* Events per round-trip job and per daemon session.  Large enough that
   per-event codec cost dominates, small enough for 100+ operations per
   run. *)
let slice_events = 250_000

(* Live with [~record], [write_file] (fsync included), [read_file],
   replay: the replay output must equal the live one. *)
let roundtrip ~spans ~job ~path (c : Cells.t) =
  let program = Cells.program c in
  let events = Branch_stream.recorder () in
  let t0 = Unix.gettimeofday () in
  let live = Spans.with_span spans ~job "simulator.record" (fun () -> Cells.run ~record:events c) in
  ignore
    (Spans.with_span spans ~job "event_log.write_file" (fun () ->
         Event_log.write_file ~path ~program ~seed:c.Cells.seed events));
  let t1 = Unix.gettimeofday () in
  let read =
    Spans.with_span spans ~job "event_log.read_file" (fun () ->
        Event_log.read_file ~path ~program ~seed:c.Cells.seed)
  in
  let replay = Spans.with_span spans ~job "simulator.replay" (fun () -> Cells.run ~replay:read c) in
  let t2 = Unix.gettimeofday () in
  let live_json, replay_json =
    Spans.with_span spans ~job "run_metrics.of_result" (fun () ->
        (Cells.json_of_result live, Cells.json_of_result replay))
  in
  (live_json, replay_json, Branch_stream.length events, t1 -. t0, t2 -. t1)

let revl_roundtrip env =
  let cells = List.mapi (Cells.make ~seed:env.seed ~budget:slice_events) slice_cells in
  let dir = Host.fresh_dir ~root:env.root "revl" in
  let setup_s, refs, setup_again =
    timed_setup ~cells (fun () -> List.map Cells.reference cells)
  in
  let refs = if env.corrupt then List.map Cells.corrupt refs else refs in
  let run ~trace ~seconds ~min_ops =
    let l = new_loop () and spans = Spans.create trace in
    l.recorders <- [ spans ];
    let t_start = Unix.gettimeofday () in
    let continue = until_done ~seconds ~min_ops l in
    while continue () do
      List.iteri
        (fun i (c, expected) ->
          let job = l.ops in
          let path = Filename.concat dir (Printf.sprintf "cell%d.revl" i) in
          checked l ~what:(Cells.label c ^ " round trip") ~expected
            (fun () ->
              Spans.with_span spans ~job "job.roundtrip" (fun () ->
                  let live_json, replay_json, n, rec_s, rep_s = roundtrip ~spans ~job ~path c in
                  add_extra l "record_events_per_s" (float_of_int n /. rec_s);
                  add_extra l "replay_events_per_s" (float_of_int n /. rep_s);
                  (* Both halves must match: a live mismatch fails the
                     job even when the replay agrees with it. *)
                  ((if String.equal live_json expected then replay_json else live_json), n))))
        (List.combine cells refs)
    done;
    l.wall_s <- Unix.gettimeofday () -. t_start;
    l
  in
  { setup_s; setup_again; run; peak_rss_mb = (fun () -> Host.vm_hwm_mb "self"); finish = ignore }

(* ---- daemon-stream ---- *)

let client_slots = 2

(* Every fifth session per slot disconnects at its midpoint and resumes. *)
let resume_every = 5

type session_stats = {
  loop : loop;
  resume_ms : float list;
      (** Per resumed session: Hello to Welcome when instrumented, the
          whole resumed [Client.stream_events] call otherwise. *)
  ctrl_ms : float list;
  timing : Daemon.timing;  (** Summed over the instrumented fresh sessions. *)
  rejects : (string * int) list;
  last_prom : string;
}

(* [count] sessions streamed back to back from [client_slots] threads.
   Each session has a fresh tenant name and a recorded slice from
   [slices] (rotated), and is followed by a [ctrl prom] round trip.
   Every [resume_every]th session per slot is cut at its midpoint and
   resumed.  Sessions go through [Client.stream_events], or, when
   [instrumented], through the client in [Daemon] that times and spans
   each phase. *)
let sessions ?(resume_every = resume_every) ~(d : Daemon.t) ~cells ~slices ~refs ~trace
    ~instrumented ~tenant_prefix ~count () =
  let cells = Array.of_list cells and slices = Array.of_list slices and refs = Array.of_list refs in
  let started = Atomic.make 0 in
  let t_start = Unix.gettimeofday () in
  let next () =
    let k = Atomic.fetch_and_add started 1 in
    if k < count then Some k else None
  in
  let slot i () =
    let l = new_loop () and spans = Spans.create ~tid:i trace in
    l.recorders <- [ spans ];
    let resume_ms = ref [] and ctrl_ms = ref [] and timing = Daemon.new_timing () in
    let rejects = Hashtbl.create 4 and last_prom = ref "" in
    let rejected code =
      let k = Proto.reject_code_to_string code in
      Hashtbl.replace rejects k (1 + Option.value (Hashtbl.find_opt rejects k) ~default:0)
    in
    let client_stream ?truncate_at ~tenant (c : Cells.t) events =
      Client.stream_events ?truncate_at ~socket_path:d.Daemon.socket ~tenant ~bench:c.bench
        ~policy:c.policy_name ~seed:c.seed ~max_steps:c.budget ~program:(Cells.program c) events
    in
    let stream ~job ~timing ~tenant c events =
      if instrumented then Daemon.stream ~spans ~job ~timing ~socket:d.Daemon.socket ~tenant c events
      else
        match
          Spans.with_span spans ~job "client.stream" (fun () -> client_stream ~tenant c events)
        with
        | Client.Finished json -> json
        | Client.Truncated _ -> failwith "an untruncated session was cut"
    in
    let rec resume ~job ~tenant c events tries =
      let tm = Daemon.new_timing () and r0 = Unix.gettimeofday () in
      match stream ~job ~timing:tm ~tenant c events with
      | json ->
        let ms =
          if instrumented then float_of_int tm.hello_ns /. 1e6
          else (Unix.gettimeofday () -. r0) *. 1e3
        in
        resume_ms := ms :: !resume_ms;
        json
      | exception Client.Rejected { code = Proto.Busy_tenant; _ } when tries > 0 ->
        rejected Proto.Busy_tenant;
        Unix.sleepf 0.001;
        resume ~job ~tenant c events (tries - 1)
    in
    let k = ref 0 in
    let rec go () =
      match next () with
      | None -> ()
      | Some job ->
        let n = !k in
        incr k;
        let ci = (n + i) mod Array.length cells in
        let c = cells.(ci) and events = slices.(ci) in
        let tenant = Printf.sprintf "%s%d-%d" tenant_prefix i n in
        checked l ~what:("session " ^ tenant) ~expected:refs.(ci) (fun () ->
            try
              Spans.with_span spans ~job "job.session" (fun () ->
                  let json =
                    if n mod resume_every = resume_every - 1 then begin
                      (match
                         Spans.with_span spans ~job "client.stream_truncated" (fun () ->
                             client_stream ~truncate_at:(Branch_stream.length events / 2) ~tenant c
                               events)
                       with
                      | Client.Truncated _ -> ()
                      | Client.Finished _ -> failwith "a truncated session finished");
                      Spans.with_span spans ~job "server.snapshot_wait" (fun () ->
                          Daemon.await_snapshot d ~tenant c);
                      resume ~job ~tenant c events 1000
                    end
                    else stream ~job ~timing ~tenant c events
                  in
                  (json, Branch_stream.length events))
            with Client.Rejected { code; _ } as e ->
              rejected code;
              raise e);
        let c0 = Unix.gettimeofday () in
        l.ops <- l.ops + 1;
        (match
           Spans.with_span spans ~job "client.ctrl_prom" (fun () ->
               Client.ctrl ~socket_path:d.Daemon.socket "prom")
         with
        | Ok text ->
          ctrl_ms := ((Unix.gettimeofday () -. c0) *. 1e3) :: !ctrl_ms;
          last_prom := text
        | Error (code, detail) ->
          rejected code;
          log_failure "ctrl prom" (Failure detail);
          l.failed <- l.failed + 1
        | exception e ->
          log_failure "ctrl prom" e;
          l.failed <- l.failed + 1);
        go ()
    in
    go ();
    {
      loop = l;
      resume_ms = !resume_ms;
      ctrl_ms = !ctrl_ms;
      timing;
      rejects = Hashtbl.fold (fun k v acc -> (k, v) :: acc) rejects [];
      last_prom = !last_prom;
    }
  in
  let merge a b =
    let la = a.loop and lb = b.loop and ta = a.timing and tb = b.timing in
    {
      loop =
        {
          la with
          ops = la.ops + lb.ops;
          failed = la.failed + lb.failed;
          lat_ms = la.lat_ms @ lb.lat_ms;
          events = la.events + lb.events;
          recorders = la.recorders @ lb.recorders;
        };
      resume_ms = a.resume_ms @ b.resume_ms;
      ctrl_ms = a.ctrl_ms @ b.ctrl_ms;
      timing =
        {
          Daemon.hello_ns = ta.hello_ns + tb.hello_ns;
          send_ns = ta.send_ns + tb.send_ns;
          write_ns = ta.write_ns + tb.write_ns;
          fin_ns = ta.fin_ns + tb.fin_ns;
        };
      rejects =
        List.fold_left
          (fun acc (k, v) -> (k, v + Option.value (List.assoc_opt k acc) ~default:0) :: List.remove_assoc k acc)
          a.rejects b.rejects;
      last_prom = (if b.last_prom = "" then a.last_prom else b.last_prom);
    }
  in
  let results = Array.make client_slots None in
  let threads =
    List.init client_slots (fun i -> Thread.create (fun () -> results.(i) <- Some (slot i ())) ())
  in
  List.iter Thread.join threads;
  match List.map (function Some r -> r | None -> failwith "client slot died") (Array.to_list results) with
  | [] -> invalid_arg "no client slots"
  | first :: rest ->
    let all = List.fold_left merge first rest in
    all.loop.wall_s <- Unix.gettimeofday () -. t_start;
    all

(* The session count is fixed per run length rather than open-ended:
   the daemon retains per-tenant state for every tenant it has seen, so
   ctrl latency and peak memory grow with the number of sessions, and a
   faster build must not read as a memory regression.  On a 2-CPU host
   a run takes from half of [seconds] (idle host) to a little under it
   (busy host). *)
let sessions_per_second = 8.0

let daemon_stream env =
  let cells = List.mapi (Cells.make ~seed:env.seed ~budget:slice_events) slice_cells in
  let setup_s, (d, recorded), setup_again =
    timed_setup ~cells
      ~dispose:(fun (d, _) -> Daemon.stop d)
      (fun () ->
        let d = Daemon.start ~exe:env.daemon_exe ~root:env.root in
        (* The slices streamed to the daemon are recorded by live runs,
           whose outputs are the references. *)
        (d, List.map Cells.record cells))
  in
  let slices = List.map fst recorded and refs = List.map snd recorded in
  let refs = if env.corrupt then List.map Cells.corrupt refs else refs in
  let segment = ref 0 in
  let run ~trace ~seconds ~min_ops =
    incr segment;
    let s =
      sessions ~d ~cells ~slices ~refs ~trace ~instrumented:false
        ~tenant_prefix:(Printf.sprintf "r%d-" !segment)
        ~count:(max min_ops (truncate (seconds *. sessions_per_second)))
        ()
    in
    s.loop.extra <- [ ("resume_call_ms", s.resume_ms); ("ctrl_ms", s.ctrl_ms) ];
    s.loop
  in
  {
    setup_s;
    setup_again;
    run;
    peak_rss_mb = (fun () -> Daemon.peak_rss_mb d);
    finish = (fun () -> Daemon.stop d);
  }

let all = [ ("live-matrix", live_matrix); ("revl-roundtrip", revl_roundtrip); ("daemon-stream", daemon_stream) ]
