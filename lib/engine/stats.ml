type t = {
  mutable steps : int;
  mutable interpreted_insts : int;
  mutable cached_insts : int;
  mutable taken_branches : int;
  mutable region_transitions : int;
  mutable dispatches : int;
  mutable cache_exits_to_interp : int;
  mutable installs : int;
  mutable links : int;
  mutable link_hits : int;
  mutable node_steps : int;
  mutable install_rejects : int;
  mutable faults_injected : int;
  mutable async_exits : int;
  mutable bailouts : int;
  mutable recovery_steps : int;
}

let create () =
  {
    steps = 0;
    interpreted_insts = 0;
    cached_insts = 0;
    taken_branches = 0;
    region_transitions = 0;
    dispatches = 0;
    cache_exits_to_interp = 0;
    installs = 0;
    links = 0;
    link_hits = 0;
    node_steps = 0;
    install_rejects = 0;
    faults_injected = 0;
    async_exits = 0;
    bailouts = 0;
    recovery_steps = 0;
  }

module Snapshot = struct
  type t = {
    steps : int;
    interpreted_insts : int;
    cached_insts : int;
    taken_branches : int;
    region_transitions : int;
    dispatches : int;
    cache_exits_to_interp : int;
    installs : int;
    links : int;
    link_hits : int;
    node_steps : int;
    install_rejects : int;
    faults_injected : int;
    async_exits : int;
    bailouts : int;
    recovery_steps : int;
  }
end

let snapshot t =
  {
    Snapshot.steps = t.steps;
    interpreted_insts = t.interpreted_insts;
    cached_insts = t.cached_insts;
    taken_branches = t.taken_branches;
    region_transitions = t.region_transitions;
    dispatches = t.dispatches;
    cache_exits_to_interp = t.cache_exits_to_interp;
    installs = t.installs;
    links = t.links;
    link_hits = t.link_hits;
    node_steps = t.node_steps;
    install_rejects = t.install_rejects;
    faults_injected = t.faults_injected;
    async_exits = t.async_exits;
    bailouts = t.bailouts;
    recovery_steps = t.recovery_steps;
  }

(* Counters are monotone within a run, but a window can straddle a
   counter reload (a crash fault resets nothing here, yet [load] may
   install an older image, e.g. a snapshot restore taken before the
   window opened).  A window is a measure of activity: clamp at zero so a
   baseline from a discarded future never yields negative rates. *)
let ( -^ ) a b = if a > b then a - b else 0

let diff ~earlier ~later =
  {
    Snapshot.steps = later.Snapshot.steps -^ earlier.Snapshot.steps;
    interpreted_insts =
      later.Snapshot.interpreted_insts -^ earlier.Snapshot.interpreted_insts;
    cached_insts = later.Snapshot.cached_insts -^ earlier.Snapshot.cached_insts;
    taken_branches = later.Snapshot.taken_branches -^ earlier.Snapshot.taken_branches;
    region_transitions =
      later.Snapshot.region_transitions -^ earlier.Snapshot.region_transitions;
    dispatches = later.Snapshot.dispatches -^ earlier.Snapshot.dispatches;
    cache_exits_to_interp =
      later.Snapshot.cache_exits_to_interp -^ earlier.Snapshot.cache_exits_to_interp;
    installs = later.Snapshot.installs -^ earlier.Snapshot.installs;
    links = later.Snapshot.links -^ earlier.Snapshot.links;
    link_hits = later.Snapshot.link_hits -^ earlier.Snapshot.link_hits;
    node_steps = later.Snapshot.node_steps -^ earlier.Snapshot.node_steps;
    install_rejects = later.Snapshot.install_rejects -^ earlier.Snapshot.install_rejects;
    faults_injected = later.Snapshot.faults_injected -^ earlier.Snapshot.faults_injected;
    async_exits = later.Snapshot.async_exits -^ earlier.Snapshot.async_exits;
    bailouts = later.Snapshot.bailouts -^ earlier.Snapshot.bailouts;
    recovery_steps = later.Snapshot.recovery_steps -^ earlier.Snapshot.recovery_steps;
  }

(* Checkpoint support: the counters as a flat int stream, in declaration
   order.  [save_snapshot]/[load_snapshot] serialize a frozen image the
   same way (the bailout watchdog's window baseline survives restore). *)

let set t (s : Snapshot.t) =
  t.steps <- s.Snapshot.steps;
  t.interpreted_insts <- s.Snapshot.interpreted_insts;
  t.cached_insts <- s.Snapshot.cached_insts;
  t.taken_branches <- s.Snapshot.taken_branches;
  t.region_transitions <- s.Snapshot.region_transitions;
  t.dispatches <- s.Snapshot.dispatches;
  t.cache_exits_to_interp <- s.Snapshot.cache_exits_to_interp;
  t.installs <- s.Snapshot.installs;
  t.links <- s.Snapshot.links;
  t.link_hits <- s.Snapshot.link_hits;
  t.node_steps <- s.Snapshot.node_steps;
  t.install_rejects <- s.Snapshot.install_rejects;
  t.faults_injected <- s.Snapshot.faults_injected;
  t.async_exits <- s.Snapshot.async_exits;
  t.bailouts <- s.Snapshot.bailouts;
  t.recovery_steps <- s.Snapshot.recovery_steps

let save_snapshot (s : Snapshot.t) emit =
  emit s.Snapshot.steps;
  emit s.Snapshot.interpreted_insts;
  emit s.Snapshot.cached_insts;
  emit s.Snapshot.taken_branches;
  emit s.Snapshot.region_transitions;
  emit s.Snapshot.dispatches;
  emit s.Snapshot.cache_exits_to_interp;
  emit s.Snapshot.installs;
  emit s.Snapshot.links;
  emit s.Snapshot.link_hits;
  emit s.Snapshot.node_steps;
  emit s.Snapshot.install_rejects;
  emit s.Snapshot.faults_injected;
  emit s.Snapshot.async_exits;
  emit s.Snapshot.bailouts;
  emit s.Snapshot.recovery_steps

let load_snapshot r =
  let c = Array.init 16 (fun _ -> Snap.int r) in
  {
    Snapshot.steps = c.(0);
    interpreted_insts = c.(1);
    cached_insts = c.(2);
    taken_branches = c.(3);
    region_transitions = c.(4);
    dispatches = c.(5);
    cache_exits_to_interp = c.(6);
    installs = c.(7);
    links = c.(8);
    link_hits = c.(9);
    node_steps = c.(10);
    install_rejects = c.(11);
    faults_injected = c.(12);
    async_exits = c.(13);
    bailouts = c.(14);
    recovery_steps = c.(15);
  }

let save t emit = save_snapshot (snapshot t) emit

let load t r =
  let s = load_snapshot r in
  fun () -> set t s

let total_insts t = t.interpreted_insts + t.cached_insts

let hit_rate t =
  let total = total_insts t in
  if total = 0 then 0.0 else float_of_int t.cached_insts /. float_of_int total
