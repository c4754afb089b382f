(** Executed control-flow edge profile of a whole run.

    Records every dynamic transfer between blocks (interpreted or cached).
    Exit domination (Section 4.1) needs it to decide whether a region
    entrance has any executed predecessor other than its dominator's exit
    block.

    Recording is batched: occurrences accumulate in a small fixed ring of
    packed [(edge_key, count)] slots and are flushed into the backing flat
    table on slot conflict, on explicit {!flush} (the simulator drains at
    region exits and watchdog windows), and automatically before any read —
    so every observer sees counts identical to an unbatched per-step
    profile. *)

open Regionsel_isa

type t

val create : unit -> t

val record : t -> src:Addr.t -> dst:Addr.t -> unit
(** Count one executed transfer.  One multiply-hash and one or two array
    stores on the hot path; no allocation ever. *)

val flush : t -> unit
(** Drain the ring into the backing table.  A no-op when the ring is
    empty; otherwise counts one flush. *)

val flushes : t -> int
(** Number of ring drains so far (conflict spills are not counted). *)

val count : t -> src:Addr.t -> dst:Addr.t -> int

val preds : t -> Addr.t -> Addr.Set.t
(** Blocks from which an executed edge reaches the given block start. *)

val n_edges : t -> int
val fold : (src:Addr.t -> dst:Addr.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the backing table {e and} the
    accumulation ring verbatim (the ring is not drained, so the flush
    count — which bench reports — is unperturbed by a save). *)

val load : t -> Snap.reader -> unit -> unit
(** Decode a {!save} stream; the returned commit replaces the profile's
    contents.  Raises [Failure] on a structurally invalid stream. *)
