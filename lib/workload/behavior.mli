(** Stochastic branch-behaviour models for synthetic workloads.

    Every conditional branch site in a workload carries a [spec] describing
    how its outcomes unfold over time; every indirect branch site carries an
    [indirect_spec] describing its target distribution.  Specs are pure
    descriptions; {!make_state} instantiates them with a private PRNG stream
    so outcomes are deterministic per seed and independent across sites.

    These models are the knobs that let the twelve synthetic SPECint2000
    stand-ins reproduce the control-flow character the paper attributes to
    each benchmark: biased vs unbiased branches, fixed trip counts, and
    phase changes (Sherwood et al., cited in Section 4.3.1). *)

open Regionsel_isa

type spec =
  | Always_taken
  | Never_taken
  | Bernoulli of float  (** Taken with the given probability, i.i.d. *)
  | Loop of int
      (** [Loop n] is taken [n - 1] times then not-taken once, repeating:
          the back edge of a loop with trip count [n]. Requires [n >= 1]. *)
  | Pattern of bool array  (** Fixed repeating outcome sequence. *)
  | Phased of (int * spec) list
      (** [(k, s)] phases: behave as [s] for [k] decisions, then move to the
          next phase, cycling. Models program phase behaviour. *)

type indirect_spec =
  | Weighted_targets of (Addr.t * float) array
      (** Sample each target with probability proportional to its weight. *)
  | Round_robin of Addr.t array  (** Cycle through targets in order. *)

type state
(** Instantiated conditional-branch behaviour (mutable). *)

type indirect_state
(** Instantiated indirect-branch behaviour (mutable). *)

val make_state : spec -> Regionsel_prng.Splitmix.t -> state
val decide : state -> bool

val make_indirect : indirect_spec -> Regionsel_prng.Splitmix.t -> indirect_state
val choose : indirect_state -> Addr.t

(** Checkpoint support: serialize a state's mutable position (PRNG limbs
    and cursors) as a flat int stream, and decode one into a new state of
    the given spec.  A decoded state is detached from any run's root
    PRNG: it depends on the spec and the stream alone.  Decoding
    validates cursors against the spec's structure and raises [Failure]
    on a mismatch. *)

val save_state : state -> (int -> unit) -> unit
val read_state : spec -> Snap.reader -> state
val save_indirect : indirect_state -> (int -> unit) -> unit
val read_indirect : indirect_spec -> Snap.reader -> indirect_state

val pp_spec : Format.formatter -> spec -> unit
