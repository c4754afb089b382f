(* The (benchmark, policy) cells each workload runs, their seeds, and the
   reference outputs every operation is checked against. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Run_metrics = Regionsel_metrics.Run_metrics

type t = {
  bench : string;
  policy_name : string;
  spec : Spec.t;
  policy : (module Regionsel_engine.Policy.S);
  seed : int64;  (** The cell's branch PRNG seed. *)
  budget : int;  (** Step budget: the benchmark default, or a fixed slice. *)
}

(* The workload seed reaches the program only as each cell's branch PRNG
   seed: distinct per cell, and distinct across workload seeds. *)
let cell_seed ~seed index = Int64.(add (mul (of_int seed) 1_000_003L) (of_int (index + 1)))

let make ~seed ?budget index (bench, policy_name) =
  let spec =
    match Suite.find bench with Some s -> s | None -> invalid_arg ("unknown bench " ^ bench)
  in
  let policy =
    match Regionsel_core.Policies.find policy_name with
    | Some p -> p
    | None -> invalid_arg ("unknown policy " ^ policy_name)
  in
  {
    bench;
    policy_name;
    spec;
    policy;
    seed = cell_seed ~seed index;
    budget = Option.value budget ~default:spec.Spec.default_steps;
  }

let label c = c.bench ^ "/" ^ c.policy_name

(* Milliseconds each benchmark's image took to build.  An image is built
   once per process, the first time a cell of that benchmark needs it. *)
let build_ms : (string, float) Hashtbl.t = Hashtbl.create 16

let image c =
  if not (Lazy.is_val c.spec.Spec.image) then begin
    let t0 = Unix.gettimeofday () in
    ignore (Spec.image c.spec);
    Hashtbl.replace build_ms c.bench ((Unix.gettimeofday () -. t0) *. 1e3)
  end;
  Spec.image c.spec

let program c = (image c).Image.program

(* Build time of the images behind [cells], each benchmark counted once,
   building any not built yet. *)
let image_ms cells =
  List.iter (fun c -> ignore (image c)) cells;
  List.sort_uniq String.compare (List.map (fun c -> c.bench) cells)
  |> List.fold_left (fun acc b -> acc +. Option.value (Hashtbl.find_opt build_ms b) ~default:0.0) 0.0

let run ?policy ?record ?replay ?telemetry ?on_window c =
  let policy = Option.value policy ~default:c.policy in
  Simulator.run ~seed:c.seed ?record ?replay ?telemetry ?on_window ~policy ~max_steps:c.budget
    (image c)

let json_of_result r = Run_metrics.to_json (Run_metrics.of_result r)

(* The reference every replay and daemon Result must equal byte for
   byte: an in-process live run of the same (cell, seed, budget). *)
let reference c = json_of_result (run c)

(* A live run that also records its branch events, returning both. *)
let record c =
  let events = Branch_stream.recorder () in
  let r = run ~record:events c in
  (events, json_of_result r)

(* A reference no correct output can equal, for the failure drill. *)
let corrupt json = "X" ^ json
