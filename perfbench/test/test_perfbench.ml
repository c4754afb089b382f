(* Tests for the benchmark's own code: order statistics, span self-time
   arithmetic, seed determinism, and a short smoke run of each workload
   (the daemon one against the built daemon binary). *)

open Perfbench_lib

let close = Alcotest.float 1e-9

let tail_percentile () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected (Pstats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 75.0);
  check 100 (Some 90.0);
  check 200 (Some 95.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9)

let quantiles () =
  Alcotest.check close "odd median" 3.0 (Pstats.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  Alcotest.check close "even median interpolates" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "p90 of 0..10" 9.0
    (Pstats.percentile (List.init 11 float_of_int) 90.0);
  Alcotest.check close "single sample" 7.0 (Pstats.percentile [ 7.0 ] 99.0)

let span ?(parent = -1) ~id t0 t1 =
  { Spans.id; name = Printf.sprintf "s%d" id; job = 0; parent; tid = 0; t0; t1 }

let self_time () =
  let p = span ~id:0 0 100 in
  let kids = [ span ~parent:0 ~id:1 10 30; span ~parent:0 ~id:2 20 50; span ~parent:0 ~id:3 90 120 ] in
  Alcotest.(check int) "overlaps counted once, clipped to parent" 50 (Spans.self_ns p kids);
  Alcotest.(check int) "leaf" 100 (Spans.self_ns p []);
  Alcotest.(check int) "fully covered" 0 (Spans.self_ns p [ span ~parent:0 ~id:4 (-5) 200 ])

let nesting () =
  let t = Spans.create true in
  Spans.with_span t ~job:7 "outer" (fun () ->
      Spans.with_span t ~job:7 "inner" (fun () -> ());
      Spans.with_span t ~job:7 "inner" (fun () -> ()));
  (try Spans.with_span t ~job:8 "raises" (fun () -> failwith "x") with Failure _ -> ());
  let spans = Spans.spans t in
  Alcotest.(check (list string)) "closing order" [ "inner"; "inner"; "outer"; "raises" ]
    (List.map (fun s -> s.Spans.name) spans);
  let outer = List.find (fun s -> s.Spans.name = "outer") spans in
  List.iter
    (fun s ->
      if s.Spans.name = "inner" then Alcotest.(check int) "inner's parent" outer.Spans.id s.Spans.parent)
    spans;
  let summary = Spans.summarize spans in
  let inner = List.find (fun s -> s.Spans.s_name = "inner") summary in
  Alcotest.(check int) "inner count" 2 inner.Spans.count;
  let outer_s = List.find (fun s -> s.Spans.s_name = "outer") summary in
  Alcotest.(check int) "outer self = total - inner" (outer_s.Spans.total_ns - inner.Spans.total_ns)
    outer_s.Spans.self_total_ns;
  Alcotest.(check bool) "disabled recorder records nothing" true
    (let off = Spans.create false in
     Spans.with_span off ~job:0 "x" (fun () -> ());
     Spans.spans off = [])

let seed_determinism () =
  let cell seed = Cells.make ~seed ~budget:20_000 1 ("gcc", "combined-lei") in
  let ev1, json1 = Cells.record (cell 5) and ev2, json2 = Cells.record (cell 5) in
  Alcotest.(check bool) "same seed, same stream" true (Regionsel_engine.Branch_stream.equal ev1 ev2);
  Alcotest.(check string) "same seed, same reference" json1 json2;
  Alcotest.(check string) "reference = recording run" (Cells.reference (cell 5)) json1;
  let ev3, _ = Cells.record (cell 6) in
  Alcotest.(check bool) "different seed, different stream" false
    (Regionsel_engine.Branch_stream.equal ev1 ev3)

let env ?(corrupt = false) () =
  {
    Workloads.seed = 3;
    corrupt;
    daemon_exe = Sys.getenv "PERFBENCH_DAEMON";
    root = "perfbench-test-scratch";
  }

let smoke name ?corrupt ~min_ops () =
  let make = List.assoc name Workloads.all in
  let w = make (env ?corrupt ()) in
  Fun.protect
    ~finally:(fun () ->
      w.Workloads.finish ();
      Daemon.kill_all ();
      Host.cleanup_dirs ())
    (fun () ->
      let l = w.Workloads.run ~trace:false ~seconds:0.0 ~min_ops in
      Alcotest.(check bool) "set-up time measured" true (w.Workloads.setup_s > 0.0);
      Alcotest.(check bool) "set-up repeated" true (w.Workloads.setup_again () > 0.0);
      Alcotest.(check bool) "peak memory read" true (w.Workloads.peak_rss_mb () > 0.0);
      l)

let smoke_clean name ~min_ops () =
  let l = smoke name ~min_ops () in
  Alcotest.(check bool) "enough operations" true (l.Workloads.ops >= min_ops);
  Alcotest.(check int) "no failures" 0 l.Workloads.failed;
  Alcotest.(check bool) "events flowed" true (Workloads.events_per_s l > 0.0)

(* The ledger's instrumented client: every second session per slot is
   cut and resumed, and each resumed session's Hello-to-Welcome time is
   kept. *)
let instrumented_resumes () =
  let d = Daemon.start ~exe:(Sys.getenv "PERFBENCH_DAEMON") ~root:"perfbench-test-scratch" in
  Fun.protect
    ~finally:(fun () ->
      Daemon.kill_all ();
      Host.cleanup_dirs ())
    (fun () ->
      let cell = Cells.make ~seed:3 ~budget:20_000 0 ("gcc", "combined-lei") in
      let events, reference = Cells.record cell in
      let s =
        Workloads.sessions ~resume_every:2 ~d ~cells:[ cell ] ~slices:[ events ] ~refs:[ reference ]
          ~trace:true ~instrumented:true ~tenant_prefix:"t-" ~count:8 ()
      in
      Alcotest.(check int) "no failures" 0 s.Workloads.loop.Workloads.failed;
      Alcotest.(check int) "sessions and ctrl round trips" 16 s.Workloads.loop.Workloads.ops;
      Alcotest.(check bool) "at least three resumes" true (List.length s.Workloads.resume_ms >= 3);
      Alcotest.(check bool) "phases timed" true (s.Workloads.timing.Daemon.hello_ns > 0))

let corrupt_reference_fails () =
  let l = smoke "revl-roundtrip" ~corrupt:true ~min_ops:1 () in
  Alcotest.(check int) "every operation failed" l.Workloads.ops l.Workloads.failed;
  Alcotest.(check int) "no events counted" 0 l.Workloads.events

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile needs 10 beyond" `Quick tail_percentile;
          Alcotest.test_case "quantiles" `Quick quantiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "nesting and summary" `Quick nesting;
        ] );
      ("seeds", [ Alcotest.test_case "seed determinism" `Quick seed_determinism ]);
      ( "smoke",
        [
          Alcotest.test_case "live-matrix" `Quick (smoke_clean "live-matrix" ~min_ops:1);
          Alcotest.test_case "revl-roundtrip" `Quick (smoke_clean "revl-roundtrip" ~min_ops:1);
          Alcotest.test_case "daemon-stream with resumes" `Quick (smoke_clean "daemon-stream" ~min_ops:10);
          Alcotest.test_case "corrupt reference is a failure" `Quick corrupt_reference_fails;
          Alcotest.test_case "instrumented sessions with resumes" `Quick instrumented_resumes;
        ] );
    ]
