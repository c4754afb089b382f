(** Raw dynamic counts accumulated over one simulated run. *)

type t = {
  mutable steps : int;  (** Blocks executed (interpreted + cached). *)
  mutable interpreted_insts : int;
  mutable cached_insts : int;
  mutable taken_branches : int;
  mutable region_transitions : int;
      (** Exits from one cached region directly into another (the linked-stub
          jumps the paper counts as separation). *)
  mutable dispatches : int;  (** Interpreter-to-cache entries. *)
  mutable cache_exits_to_interp : int;
  mutable installs : int;  (** Regions selected. *)
  mutable links : int;
      (** Distinct region-to-region links created (exit stubs patched to
          jump directly to another region) — the memory the paper's
          footnote 9 expects its algorithms to reduce. *)
  mutable link_hits : int;
      (** Region transitions taken through a patched link slot rather than
          the dispatch array. *)
  mutable node_steps : int;
      (** Cached steps executed through the compiled region automaton
          (equal to the cached step count). *)
  mutable install_rejects : int;
      (** Install attempts the cache rejected (duplicate, blacklisted or
          translation-failed) or the bailout cooldown suppressed. *)
  mutable faults_injected : int;  (** Fault events delivered to this run. *)
  mutable async_exits : int;
      (** Spurious asynchronous exits that actually kicked execution out of
          region mode. *)
  mutable bailouts : int;  (** Watchdog flush-and-interpret bailouts. *)
  mutable recovery_steps : int;
      (** Steps spent inside a bailout cooldown (pure interpretation). *)
}

val create : unit -> t

(** An immutable copy of the counters at one instant, so windowed readers
    (the bailout watchdog, telemetry samplers) work off a frozen image
    instead of live mutable fields that may advance under them. *)
module Snapshot : sig
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

val snapshot : t -> Snapshot.t
(** Freeze the current counter values. *)

val diff : earlier:Snapshot.t -> later:Snapshot.t -> Snapshot.t
(** Field-wise [later - earlier], clamped at zero: the activity inside
    one window.  A window that straddles a counter reload (snapshot
    restore to an older image) reads as empty activity, never as a
    negative rate. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: emit every counter, in declaration order. *)

val load : t -> Snap.reader -> unit -> unit
(** Decode a {!save} stream; the returned commit overwrites every
    counter. *)

val save_snapshot : Snapshot.t -> (int -> unit) -> unit
val load_snapshot : Snap.reader -> Snapshot.t

val total_insts : t -> int

val hit_rate : t -> float
(** Fraction of executed instructions executed from the code cache. *)
