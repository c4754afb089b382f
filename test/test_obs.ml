(* The windowed metrics pipeline's contracts: recorders close windows at
   deterministic step boundaries and mutate nothing simulated; both
   exporters are byte-deterministic (JSONL across reruns and across
   multi-stream domain counts, Prometheus duplicate-free and grammatical);
   the flight recorder's ring bounds history to the newest K windows. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Simulator = Regionsel_engine.Simulator
module Multi_stream = Regionsel_engine.Multi_stream
module Params = Regionsel_engine.Params
module Stats = Regionsel_engine.Stats
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Telemetry = Regionsel_telemetry.Telemetry
module Metrics = Regionsel_obs.Metrics
open Fixtures

let policy_exn name = Option.get (Policies.find name)
let labels = [ ("tenant", "gzip"); ("policy", "net"); ("dispatch", "threaded") ]

let metered_run ?telemetry ?(window = 1000) ?keep ?(max_steps = 20_000) () =
  let spec = Option.get (Suite.find "gzip") in
  let r = Metrics.create ~window ?keep ~labels () in
  let result =
    Simulator.run ~params:Params.default ~seed:1L ?telemetry
      ~on_window:(Metrics.hook r) ~policy:(policy_exn "net") ~max_steps
      (Spec.image spec)
  in
  Metrics.finalize r result;
  (r, result)

(* ---- Recorder semantics ---- *)

let windows_close_at_absolute_boundaries () =
  let r, result = metered_run () in
  let ws = Metrics.windows r in
  check_true "has windows" (ws <> []);
  check_int "retains everything without keep" (Metrics.n_windows r) (List.length ws);
  List.iteri
    (fun i (w : Metrics.window) ->
      check_int "indices are sequential" i w.Metrics.w_index;
      check_true "window is non-empty" (w.Metrics.w_end_step > w.Metrics.w_start_step);
      (* Every boundary except a final partial one is an absolute multiple
         of the window size — not an offset from the previous sample. *)
      if i < List.length ws - 1 then
        check_int "boundary is an absolute multiple" 0 (w.Metrics.w_end_step mod 1000))
    ws;
  (* Contiguous coverage: each window starts where the last one ended,
     and the final one ends at the run's last step. *)
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
      check_int "windows are contiguous" a.Metrics.w_end_step b.Metrics.w_start_step;
      contiguous rest
    | [ last ] ->
      check_int "final window ends at the run's last step"
        result.Simulator.stats.Stats.steps last.Metrics.w_end_step
    | [] -> ()
  in
  contiguous ws;
  List.iter
    (fun (w : Metrics.window) ->
      Alcotest.(check (list (pair string string))) "labels ride every window" labels
        w.Metrics.w_labels)
    ws

let finalize_is_boundary_exact () =
  (* A run halting exactly on a boundary gains nothing from finalize; one
     halting past it gains exactly the partial tail. *)
  let r, result = metered_run ~window:100 () in
  let last = List.nth (Metrics.windows r) (Metrics.n_windows r - 1) in
  check_int "tail window reaches the final step" result.Simulator.stats.Stats.steps
    last.Metrics.w_end_step;
  let n = Metrics.n_windows r in
  Metrics.finalize r result;
  check_int "finalize is idempotent" n (Metrics.n_windows r)

let keep_bounds_the_ring () =
  let r, _ = metered_run ~window:500 ~keep:4 () in
  let ws = Metrics.windows r in
  check_int "ring keeps the newest 4" 4 (List.length ws);
  check_true "more were sampled than kept" (Metrics.n_windows r > 4);
  let first = List.hd ws in
  check_int "oldest retained index" (Metrics.n_windows r - 4) first.Metrics.w_index

let notify_fires_per_window () =
  let seen = ref 0 in
  let spec = Option.get (Suite.find "gzip") in
  let r = Metrics.create ~window:1000 ~notify:(fun _ -> incr seen) ~labels () in
  let result =
    Simulator.run ~params:Params.default ~seed:1L ~on_window:(Metrics.hook r)
      ~policy:(policy_exn "net") ~max_steps:20_000 (Spec.image spec)
  in
  Metrics.finalize r result;
  check_int "notify fired once per window" (Metrics.n_windows r) !seen;
  check_true "status line is labelled"
    (let line = Metrics.status_line (List.hd (Metrics.windows r)) in
     let has sub =
       let n = String.length sub in
       let rec at i = i + n <= String.length line && (String.sub line i n = sub || at (i + 1)) in
       at 0
     in
     has "tenant=gzip" && has "policy=net" && has "win=")

let quantiles_require_a_sink () =
  let names (r, _) =
    List.concat_map
      (fun (w : Metrics.window) -> List.map fst w.Metrics.w_values)
      (Metrics.windows r)
  in
  let plain = names (metered_run ()) in
  check_true "no quantile series without a sink"
    (not (List.exists (fun n -> n = "residency_p50") plain));
  let traced = names (metered_run ~telemetry:(Some (Telemetry.create ())) ()) in
  List.iter
    (fun n -> check_true (n ^ " series present with a sink") (List.mem n traced))
    [
      "residency_p50"; "residency_p90"; "residency_p99";
      "trace_length_p50"; "trace_length_p90"; "trace_length_p99";
      "time_to_first_link_p50"; "time_to_first_link_p90"; "time_to_first_link_p99";
    ]

(* ---- The parity pin: metering changes nothing simulated ---- *)

let metered_run_changes_no_metric () =
  let spec = Option.get (Suite.find "gzip") in
  let bare =
    Simulator.run ~params:Params.default ~seed:1L ~policy:(policy_exn "net")
      ~max_steps:20_000 (Spec.image spec)
  in
  let _, metered = metered_run ~window:64 () in
  Alcotest.(check string) "Run_metrics identical with metering on"
    (Run_metrics.to_json (Run_metrics.of_result bare))
    (Run_metrics.to_json (Run_metrics.of_result metered))

(* ---- Exporters ---- *)

let jsonl_is_byte_identical_across_reruns () =
  let dump () =
    let r, _ = metered_run ~telemetry:(Some (Telemetry.create ())) () in
    Metrics.to_jsonl (Metrics.windows r)
  in
  let a = dump () in
  check_true "jsonl is non-empty" (String.length a > 0);
  Alcotest.(check string) "rerun is byte-identical" a (dump ())

let jsonl_records_are_one_per_series_per_window () =
  let r, _ = metered_run ~window:1000 () in
  let ws = Metrics.windows r in
  let lines =
    String.split_on_char '\n' (Metrics.to_jsonl ws) |> List.filter (fun l -> l <> "")
  in
  let per_window = List.length (List.hd ws).Metrics.w_values in
  check_int "one line per series per window" (List.length ws * per_window)
    (List.length lines);
  List.iter
    (fun l ->
      check_true "line is a JSON object"
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let prometheus_grammar_and_uniqueness () =
  let r, _ = metered_run ~telemetry:(Some (Telemetry.create ())) () in
  let text = Metrics.to_prometheus (Metrics.windows r) in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  check_true "exposition is non-empty" (lines <> []);
  let typed = Hashtbl.create 32 in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        (* "# HELP name text" / "# TYPE name kind" *)
        match String.split_on_char ' ' line with
        | "#" :: kind :: name :: _ ->
          check_true "comment is HELP or TYPE" (kind = "HELP" || kind = "TYPE");
          if kind = "TYPE" then begin
            check_true ("TYPE once per series: " ^ name) (not (Hashtbl.mem typed name));
            Hashtbl.replace typed name ()
          end
        | _ -> Alcotest.failf "malformed comment line: %s" line
      end
      else begin
        (* "name{label="v",...} value" — value must parse as a float. *)
        let sp = String.rindex line ' ' in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        check_true ("sample value parses: " ^ line)
          (Float.is_finite (float_of_string value));
        let key = String.sub line 0 sp in
        let name =
          match String.index_opt key '{' with
          | Some i ->
            check_true "label block closes" (key.[String.length key - 1] = '}');
            String.sub key 0 i
          | None -> key
        in
        check_true ("name is prefixed: " ^ name)
          (String.length name > 10 && String.sub name 0 10 = "regionsel_");
        check_true ("TYPE precedes sample: " ^ name) (Hashtbl.mem typed name);
        check_true ("no duplicate series: " ^ key) (not (Hashtbl.mem seen key));
        Hashtbl.replace seen key ()
      end)
    lines

(* ---- Keep-mode ring and the memoized scrape ---- *)

(* A bounded recorder sampled beside an unbounded one must export exactly
   the unbounded one's tail, at every point of its life: while the ring
   grows, once it is full, and after it wraps many times over. *)
let keep_ring_is_the_unbounded_tail () =
  let spec = Option.get (Suite.find "gzip") in
  List.iter
    (fun keep ->
      let all = Metrics.create ~labels () in
      let kept = Metrics.create ~keep ~labels () in
      let compare_exports () =
        let n = Metrics.n_windows all in
        let tag what = Printf.sprintf "keep %d after %d samples: %s" keep n what in
        check_int (tag "n_windows") n (Metrics.n_windows kept);
        check_true (tag "windows")
          (compare (Metrics.last_windows all keep) (Metrics.windows kept) = 0);
        List.iter
          (fun k ->
            check_true
              (tag (Printf.sprintf "last_windows %d" k))
              (compare (Metrics.last_windows all (min k keep)) (Metrics.last_windows kept k) = 0))
          [ -1; 0; 1; 2; keep - 1; keep; keep + 1 ];
        Alcotest.(check string) (tag "prometheus")
          (Metrics.to_prometheus (Metrics.windows all))
          (Metrics.recorders_to_prometheus [ kept ])
      in
      let hook =
        {
          Simulator.win_every = 10;
          win_fn =
            (fun ~step ~stats ~ctx ->
              Metrics.sample all ~step ~stats ~ctx;
              Metrics.sample kept ~step ~stats ~ctx;
              let n = Metrics.n_windows all in
              if n <= 8 || abs (n - keep) <= 1 || abs (n - (2 * keep)) <= 1 || n mod 97 = 0
              then compare_exports ());
        }
      in
      let result =
        Simulator.run ~params:Params.default ~seed:1L ~on_window:hook
          ~policy:(policy_exn "net") ~max_steps:25_005 (Spec.image spec)
      in
      Metrics.finalize all result;
      Metrics.finalize kept result;
      check_true "more than 2,000 samples" (Metrics.n_windows all > 2_000);
      compare_exports ();
      Alcotest.(check string) "jsonl is the unbounded tail"
        (Metrics.to_jsonl (Metrics.last_windows all keep))
        (Metrics.to_jsonl (Metrics.windows kept)))
    [ 1; 3; 256 ]

(* The memo model test: several recorders (two sharing a label set, one
   bounded) over live simulations, with samples, partial renders and
   finalizes interleaved at random.  After every step the memoized scrape
   must equal the all-windows renderer: a push that failed to invalidate
   a recorder's cached lines shows up as a stale sample or count. *)
type memo_op = Sample of int | Render of int | Finalize of int

let memo_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Sample i) (int_bound 3));
        (3, map (fun i -> Render i) (int_bound 3));
        (1, map (fun i -> Finalize i) (int_bound 3));
      ])

let print_memo_op = function
  | Sample i -> Printf.sprintf "Sample %d" i
  | Render i -> Printf.sprintf "Render %d" i
  | Finalize i -> Printf.sprintf "Finalize %d" i

let qcheck_memoized_scrape_tracks_every_push =
  QCheck.Test.make ~name:"memoized scrape = to_prometheus after every step" ~count:60
    (QCheck.make
       ~print:(QCheck.Print.list print_memo_op)
       QCheck.Gen.(list_size (int_range 1 40) memo_op_gen))
    (fun ops ->
      let shared = [ ("tenant", "shared"); ("policy", "net") ] in
      let tenants =
        [|
          ("gzip", "net", shared, None);
          ("twolf", "lei", [ ("tenant", "twolf"); ("policy", "lei") ], Some 2);
          ("mcf", "net", shared, None);
          ("vpr", "lei", [ ("tenant", "vpr"); ("policy", "lei") ], None);
        |]
      in
      let sims =
        Array.map
          (fun (bench, pname, _, _) ->
            Simulator.create ~seed:3L ~policy:(policy_exn pname) ~max_steps:3_000
              (Spec.image (Option.get (Suite.find bench))))
          tenants
      in
      let rs =
        Array.map (fun (_, _, labels, keep) -> Metrics.create ?keep ~labels ()) tenants
      in
      let all = Array.to_list rs in
      let agrees () =
        String.equal
          (Metrics.recorders_to_prometheus all)
          (Metrics.to_prometheus (List.concat_map Metrics.windows all))
      in
      List.for_all
        (fun op ->
          (match op with
          | Sample i ->
            Simulator.advance sims.(i) ~upto:(Simulator.steps sims.(i) + 250);
            Simulator.sample sims.(i) (Metrics.sample rs.(i))
          | Render i -> ignore (Metrics.recorders_to_prometheus [ rs.(i) ])
          | Finalize i -> Metrics.finalize rs.(i) (Simulator.finish sims.(i)));
          agrees ())
        ops)

(* ---- Multi-stream fleets ---- *)

let fleet_specs =
  [ ("gzip", "net", 1L); ("twolf", "lei", 2L); ("mcf", "combined-net", 3L) ]

let fleet_tenants () =
  List.map
    (fun (bench, pname, seed) ->
      let spec = Option.get (Suite.find bench) in
      Multi_stream.tenant ~params:Params.default ~seed ~policy:(policy_exn pname)
        ~max_steps:(min spec.Spec.default_steps 20_000)
        ~name:bench (Spec.image spec))
    fleet_specs

let fleet_labels =
  List.map
    (fun (bench, pname, _) -> (bench, [ ("tenant", bench); ("policy", pname) ]))
    fleet_specs

let fleet_jsonl ~n_domains =
  let fleet = Metrics.Fleet.create fleet_labels in
  let (_ : Multi_stream.outcome) =
    Multi_stream.run ~n_domains ~batch_steps:1024
      ~on_barrier:(Metrics.Fleet.on_barrier fleet) (fleet_tenants ())
  in
  (fleet, Metrics.to_jsonl (Metrics.Fleet.all_windows fleet))

let fleet_jsonl_identical_across_domain_counts () =
  let fleet, a = fleet_jsonl ~n_domains:1 in
  let _, b = fleet_jsonl ~n_domains:3 in
  check_true "fleet jsonl is non-empty" (String.length a > 0);
  Alcotest.(check string) "1 vs 3 domains byte-identical" a b;
  (* Every tenant recorded windows, and the aggregate matched the barrier
     count of the longest-lived tenant. *)
  List.iter
    (fun (name, ws) -> check_true (name ^ " has windows") (ws <> []))
    (Metrics.Fleet.tenant_windows fleet);
  let agg = Metrics.Fleet.aggregate_windows fleet in
  check_true "aggregate has windows" (agg <> []);
  let longest =
    List.fold_left max 0
      (List.map (fun (_, ws) -> List.length ws) (Metrics.Fleet.tenant_windows fleet))
  in
  check_int "aggregate closes one window per barrier" longest (List.length agg)

let fleet_aggregate_sums_steps () =
  let fleet, _ = fleet_jsonl ~n_domains:2 in
  let steps_of ws =
    List.fold_left
      (fun acc (w : Metrics.window) ->
        match List.assoc "steps" w.Metrics.w_values with
        | Metrics.Int n -> acc + n
        | Metrics.Float _ -> acc)
      0 ws
  in
  let tenant_total =
    List.fold_left
      (fun acc (_, ws) -> acc + steps_of ws)
      0
      (Metrics.Fleet.tenant_windows fleet)
  in
  check_int "aggregate windows sum the tenants' step deltas" tenant_total
    (steps_of (Metrics.Fleet.aggregate_windows fleet))

(* ---- Flight recorder ---- *)

let flight_dump_writes_header_and_ring () =
  let r, _ = metered_run ~window:500 ~keep:Metrics.default_flight_keep () in
  let path = Filename.temp_file "regionsel" ".flight.jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let n =
        Metrics.flight_dump ~path ~cli:"regionsel_sim run gzip" ~detail:"unit test"
          (Metrics.windows r)
      in
      check_int "dumps the retained ring" Metrics.default_flight_keep n;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      let header = List.hd lines in
      check_true "header carries the reproducer line"
        (String.length header > 0
        && header.[0] = '{'
        &&
        let has sub =
          let nn = String.length sub in
          let rec at i =
            i + nn <= String.length header && (String.sub header i nn = sub || at (i + 1))
          in
          at 0
        in
        has "\"flight\"" && has "regionsel_sim run gzip" && has "unit test");
      let per_window =
        List.length (List.hd (Metrics.windows r)).Metrics.w_values
      in
      check_int "header plus one line per series per window"
        (1 + (n * per_window))
        (List.length lines))

let suite =
  [
    case "windows close at absolute boundaries" windows_close_at_absolute_boundaries;
    case "finalize is boundary-exact" finalize_is_boundary_exact;
    case "keep bounds the ring" keep_bounds_the_ring;
    case "notify fires per window" notify_fires_per_window;
    case "quantile series require a sink" quantiles_require_a_sink;
    case "metered run changes no metric" metered_run_changes_no_metric;
    case "jsonl byte-identical across reruns" jsonl_is_byte_identical_across_reruns;
    case "jsonl one record per series per window" jsonl_records_are_one_per_series_per_window;
    case "prometheus grammar and uniqueness" prometheus_grammar_and_uniqueness;
    case "keep ring is the unbounded tail" keep_ring_is_the_unbounded_tail;
    QCheck_alcotest.to_alcotest qcheck_memoized_scrape_tracks_every_push;
    case "fleet jsonl identical across domain counts" fleet_jsonl_identical_across_domain_counts;
    case "fleet aggregate sums steps" fleet_aggregate_sums_steps;
    case "flight dump writes header and ring" flight_dump_writes_header_and_ring;
  ]
