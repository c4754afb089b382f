(* Benchmark entry point.  Run through perfbench/run.py, which builds this
   executable and the daemon first; see perfbench/README.md.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --daemon-exe PATH --out-dir DIR [--commit C]
                   [--corrupt-reference]

   The last line of standard output is the result: correctness, operation
   counts, and either the end-to-end metrics (--trace 0) or the per-layer
   ledger (--trace 1).  Exit code 1 when any output differed from its
   reference. *)

open Perfbench_lib

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let daemon_exe = ref ""
let out_dir = ref ".bench_build/perfbench"
let commit = ref "unknown"
let corrupt = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME live-matrix | revl-roundtrip | daemon-stream");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ("--daemon-exe", Arg.Set_string daemon_exe, "PATH built regionsel_daemon");
    ("--out-dir", Arg.Set_string out_dir, "DIR scratch files and traces");
    ("--commit", Arg.Set_string commit, "C source commit, for provenance");
    ("--corrupt-reference", Arg.Set corrupt, " corrupt every reference output (failure drill)");
  ]

(* Operations per run, so that the p90 has at least ten samples beyond
   it. *)
let min_ops = 100

(* The untraced loop runs in this many pieces with a set-up repetition
   after each.  The reported set-up time, the median of all repetitions,
   then samples the host across the whole run, as the loop does. *)
let segments = 6

(* Median and sample count of each workload-specific sample series. *)
let extra_provenance (l : Workloads.loop) =
  List.concat_map
    (fun (name, xs) ->
      [
        (name ^ "_p50", if xs = [] then "null" else Printf.sprintf "%.4f" (Pstats.median xs));
        (name ^ "_samples", string_of_int (List.length xs));
      ])
    l.Workloads.extra

let fmt_metric (name, value, unit) =
  Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Host.json_string name)
    (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
    (Host.json_string unit)

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Host.json_string k ^ ":" ^ v) fields) ^ "}"

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  let make =
    match List.assoc_opt !workload Workloads.all with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !daemon_exe = "" || not (Sys.file_exists !daemon_exe) then begin
    prerr_endline "perfbench: --daemon-exe must name the built regionsel_daemon";
    exit 2
  end;
  (* Every exit path stops the daemons and removes scratch state. *)
  at_exit (fun () ->
      Daemon.kill_all ();
      Host.cleanup_dirs ());
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  let root = Filename.concat !out_dir "tmp" in
  let env = { Workloads.seed = !seed; corrupt = !corrupt; daemon_exe = !daemon_exe; root } in
  let traced = !trace = 1 in
  (* The ledger's daemon starts before anything spawns a domain. *)
  let ledger_daemon = if traced then Some (Daemon.start ~exe:!daemon_exe ~root) else None in
  let w = make env in
  let attempted = ref 0 and failed = ref 0 in
  let count (l : Workloads.loop) =
    attempted := !attempted + l.Workloads.ops;
    failed := !failed + l.Workloads.failed
  in
  let provenance = ref [] in
  let metrics =
    if not traced then begin
      let setups = ref [ w.Workloads.setup_s ] in
      let l =
        Workloads.pool
          (List.init segments (fun _ ->
               let l =
                 w.Workloads.run ~trace:false
                   ~seconds:(!seconds /. float_of_int segments)
                   ~min_ops:((min_ops + segments - 1) / segments)
               in
               setups := w.Workloads.setup_again () :: !setups;
               l))
      in
      count l;
      let rss = w.Workloads.peak_rss_mb () in
      w.Workloads.finish ();
      let n = List.length l.Workloads.lat_ms in
      provenance :=
        [
          ("op_samples", string_of_int n);
          ( "op_tail_percentile",
            match Pstats.tail_percentile n with Some p -> Printf.sprintf "%g" p | None -> "null" );
          ("setup_reps", string_of_int (List.length !setups));
        ]
        @ extra_provenance l;
      [
        ("setup_s", Pstats.median !setups, "s");
        ("events_per_s", Workloads.events_per_s l, "events/s");
        ("op_p50_ms", Pstats.median l.Workloads.lat_ms, "ms");
        ("op_p90_ms", Pstats.percentile l.Workloads.lat_ms 90.0, "ms");
        ("peak_rss_mb", rss, "MB");
      ]
    end
    else begin
      (* Untraced and traced quarters in the order U T T U, so that drift
         on the host cancels: the difference is the tracing overhead. *)
      let quarter trace = w.Workloads.run ~trace ~seconds:(!seconds /. 4.0) ~min_ops:8 in
      let u1 = quarter false in
      let t1 = quarter true in
      let t2 = quarter true in
      let u2 = quarter false in
      let plain = Workloads.pool [ u1; u2 ] and spanned = Workloads.pool [ t1; t2 ] in
      count plain;
      count spanned;
      w.Workloads.finish ();
      let spans = List.concat_map Spans.spans spanned.Workloads.recorders in
      Host.mkdir_p !out_dir;
      let trace_path =
        Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed)
      in
      Out_channel.with_open_bin trace_path (fun oc ->
          output_string oc (Spans.to_chrome_json spans));
      let summary =
        List.map
          (fun s ->
            json_obj
              [
                ("name", Host.json_string s.Spans.s_name);
                ("count", string_of_int s.Spans.count);
                ("total_ms", Printf.sprintf "%.3f" (float_of_int s.Spans.total_ns /. 1e6));
                ("self_ms", Printf.sprintf "%.3f" (float_of_int s.Spans.self_total_ns /. 1e6));
              ])
          (Spans.summarize spans)
      in
      print_endline (json_obj [ ("spans", "[" ^ String.concat "," summary ^ "]") ]);
      let acc = ref [] in
      let add name value unit = acc := (name, value, unit) :: !acc in
      let check what ok =
        incr attempted;
        if not ok then begin
          incr failed;
          Printf.eprintf "perfbench: ledger check failed: %s\n%!" what
        end
      in
      let daemon = Option.get ledger_daemon in
      let rejects = Ledger.run ~env ~daemon ~add ~check in
      Daemon.stop daemon;
      add "trace.overhead_frac"
        (1.0 -. (Workloads.events_per_s spanned /. Workloads.events_per_s plain))
        "ratio";
      add "trace.spans" (float_of_int (List.length spans)) "count";
      provenance :=
        [
          ("trace_file", Host.json_string trace_path);
          ( "server_rejects_by_code",
            json_obj (List.map (fun (k, v) -> (k, string_of_int v)) rejects) );
        ]
        @ extra_provenance spanned;
      List.rev !acc
    end
  in
  print_endline
    (json_obj
       [
         ( "provenance",
           json_obj
             (Host.fingerprint ~commit:!commit
             @ [
                 ("workload", Host.json_string !workload);
                 ("seed", string_of_int !seed);
                 ("seconds", Printf.sprintf "%g" !seconds);
                 ("trace", string_of_int !trace);
               ]
             @ !provenance) );
       ]);
  let correct = !failed = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 !attempted) !failed
    (String.concat "," (List.map fmt_metric metrics));
  exit (if correct then 0 else 1)
