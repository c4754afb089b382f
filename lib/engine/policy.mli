(** The region-selection policy interface.

    A policy is the pluggable heart of the system: NET, LEI, their combined
    variants and the related-work algorithms all implement this signature.
    The simulator delivers two kinds of events:

    - [Interp_block]: a block was just executed {e by the interpreter}
      (never delivered for blocks executed from the code cache).  The policy
      sees every interpreted block, including ones whose taken branch is
      about to dispatch into the cache — it must itself skip profiling work
      in that case, mirroring lines 1-4 of the paper's Figure 5.
    - [Cache_exited]: execution left a cached region through an exit stub
      whose target is {e not} cached (a linked stub — one leading to another
      region — performs no profiling in a real system, so no event is
      delivered for it).
    - [Region_invalidated]: a region the policy had installed was retired
      by a fault (self-modifying code, cache shock) or a watchdog bailout —
      or an install the policy requested was rejected (translation failure,
      blacklist cooldown, bailout), in which case [entry] is the entry of
      the spec that never made it in.  The policy should drop any stale
      observation state keyed by that entry — counters, pending formers,
      stored traces — so re-selection starts from scratch.  Never delivered
      on clean (zero-fault) runs.

    A policy responds with at most one region to install.  The simulator
    installs it and, if the current transfer targets the new region's entry,
    dispatches into it immediately — the paper's "jump newT".

    [Interp_block] fires once per interpreted block — the hottest edge in
    the whole system — so its payload is a mutable record the simulator
    preallocates and reuses, with [Addr.none] standing in for "no next
    block".  Policies must read the fields during [handle] and must not
    retain the record. *)

open Regionsel_isa

type interp_block = { mutable block : Block.t; mutable taken : bool; mutable next : Addr.t }

type event =
  | Interp_block of interp_block
  | Cache_exited of { from_entry : Addr.t; src : Addr.t; tgt : Addr.t }
  | Region_invalidated of { entry : Addr.t }

type action = No_action | Install of Region.spec list

module type S = sig
  type t

  val name : string
  val create : Context.t -> t
  val handle : t -> event -> action

  val save : t -> (int -> unit) -> unit
  (** Checkpoint support: serialize the policy's warm observation state
      (counters, pending formers, stored traces, history cursors) as a
      flat int stream.  A stateless policy emits nothing. *)

  val load : Context.t -> Snap.reader -> t
  (** Rebuild a policy instance from a {!save} stream over the given
      context, without touching the context: the simulator installs the
      instance only once the whole section has decoded.  [load ctx] of a
      stream saved by a fresh instance must behave exactly like
      [create ctx].  Raises [Failure] on a structurally invalid stream. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

val instantiate : (module S) -> Context.t -> packed
val handle : packed -> event -> action
val name : (module S) -> string

val save : packed -> (int -> unit) -> unit
(** {!S.save} through the packing. *)

val load : (module S) -> Context.t -> Snap.reader -> packed
(** {!S.load} through the packing: rebuild a packed instance of the given
    policy module from a saved stream. *)
