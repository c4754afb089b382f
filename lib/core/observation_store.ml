open Regionsel_isa
module Gauges = Regionsel_engine.Gauges

type t = { table : Compact_trace.t list Addr.Table.t; gauges : Gauges.t; mutable bytes : int }

let create gauges = { table = Addr.Table.create 64; gauges; bytes = 0 }

let record t trace =
  let entry = Compact_trace.entry trace in
  let prev = Option.value ~default:[] (Addr.Table.find_opt t.table entry) in
  Addr.Table.replace t.table entry (trace :: prev);
  let bytes = Compact_trace.size_bytes trace in
  t.bytes <- t.bytes + bytes;
  Gauges.add_observed_bytes t.gauges bytes

let count t entry =
  match Addr.Table.find_opt t.table entry with Some l -> List.length l | None -> 0

let take t entry =
  match Addr.Table.find_opt t.table entry with
  | None -> []
  | Some traces ->
    Addr.Table.remove t.table entry;
    let bytes = List.fold_left (fun acc tr -> acc + Compact_trace.size_bytes tr) 0 traces in
    t.bytes <- t.bytes - bytes;
    Gauges.add_observed_bytes t.gauges (-bytes);
    List.rev traces

let total_bytes t = t.bytes
let n_entries t = Addr.Table.length t.table

(* Checkpoint support.  Restoring does not touch the gauges: the shared
   gauge state has its own snapshot section, restored before the policy's.
   With one store per run the gauge's observed bytes are exactly the
   store's, so [load] insists on that: a store whose byte count disagrees
   with its traces or with the gauge (a forged count, or a gauges section
   that degraded to zero) would drive the gauge negative as its traces
   are taken, and is rejected instead.  Stored traces are replayed at
   combination time, mid-run, so one that does not replay from its entry
   on the program is rejected here too. *)

let save t emit =
  emit t.bytes;
  (* Entry-sorted: table iteration order depends on insertion history,
     which would make a restored store re-encode differently. *)
  Snap.emit_list emit
    (fun (entry, traces) ->
      emit entry;
      Snap.emit_list emit (fun tr -> Compact_trace.save tr emit) traces)
    (List.sort
       (fun (a, _) (b, _) -> Addr.compare a b)
       (Addr.Table.fold (fun k v acc -> (k, v) :: acc) t.table []))

let load ~program t r =
  let bytes = Snap.nat r in
  let sum = ref 0 in
  Addr.Table.reset t.table;
  for _ = 1 to Snap.len r do
    let entry = Snap.int r in
    let traces = Snap.list r Compact_trace.load in
    List.iter
      (fun tr ->
        if Compact_trace.entry tr <> entry then failwith "Observation_store.load: misfiled trace";
        ignore (Compact_trace.decode program tr : Regionsel_engine.Region.path);
        sum := !sum + Compact_trace.size_bytes tr)
      traces;
    Addr.Table.replace t.table entry traces
  done;
  if bytes <> !sum || bytes <> Gauges.observed_bytes t.gauges then
    failwith "Observation_store.load: byte count disagrees with the traces or the gauge";
  t.bytes <- bytes
