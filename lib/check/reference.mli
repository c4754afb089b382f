(** The reference semantics the engine is checked against.

    Two specifications, each written for clarity rather than speed and
    never linked into [Regionsel_engine]:

    - a {e reference interpreter}: a plain [match] over
      {!Regionsel_isa.Terminator.t} that validates every transfer target,
      against which [Interp]'s threaded closure table is diffed step by
      step;
    - the {e reference region rule}: where execution goes after a step,
      decided from the region spec's edge list and the dispatch array,
      against which the simulator's compiled region stepper (hot successor,
      adjacency bitset, patched link slots) is diffed step by step.

    A trace is correct when it is observationally equivalent to the
    interpreter on the paths it covers; these two functions are that
    observation.  [Check.checked_run] applies both to every step of a
    checked run. *)

open Regionsel_isa

type t
(** A reference interpreter over one image. *)

type step = {
  block : Block.t;  (** The block just executed. *)
  taken : bool;  (** Whether its terminator transferred control away. *)
  next : Addr.t;  (** The next block start; [Addr.none] after a halt. *)
}

val create : Regionsel_workload.Image.t -> seed:int64 -> t
(** Start at the program entry with an empty return stack.  Branch
    behaviour states are created lazily, in first-execution order, from
    [Image.cond_spec] / [Image.indirect_spec], each splitting the root
    PRNG seeded with [seed] — the same draws [Interp] makes, so the two
    produce the same step stream. *)

val step : t -> step option
(** Execute one block; [None] once halted (a [Halt], or a [Return] with an
    empty stack, was the previous step).
    @raise Invalid_argument when a transfer target (an indirect branch's
    choice, in practice) is not a block start. *)

val load_warm : t -> Snap.reader -> unit
(** Load the [interp] snapshot section ([Interp.save_warm]'s stream) into a
    fresh reference interpreter over the same image, so it continues from
    the saved pc, return stack and PRNG positions.
    @raise Failure on a malformed presence flag or stack length. *)

val next_region :
  cache:Regionsel_engine.Code_cache.t ->
  program:Program.t ->
  region:Regionsel_engine.Region.t ->
  block:Block.t ->
  taken:bool ->
  next:Addr.t ->
  Regionsel_engine.Region.t
(** The reference region rule: the region the run executes its next step
    in, given that it executed [block] in [region] ([Region.dummy] while
    interpreting) and control went to [next] (not [Addr.none]).

    - Interpreting: a taken branch moves to [Code_cache.dispatch next], or
      keeps interpreting when that slot is empty; a fall-through keeps
      interpreting.
    - In [region]: if [Region.has_edge region ~src:block.start ~dst:next]
      the run stays in [region]; otherwise it moves to
      [Code_cache.dispatch next] — which may be [region] itself (a
      self-link) — or interprets when that slot is empty.

    [cache] is read as it stands after the step's policy work, so a region
    the policy installed at [next] during the step (the paper's "jump
    newT") counts. *)
