(** Storage for compactly-encoded observed traces, keyed by entry address
    (Section 4.2.1).

    Each stored trace is independent — no cross-trace analysis happens
    until the entry's region is selected — and the store keeps the shared
    memory gauge up to date so the Figure 18 high-water metric reflects the
    bytes held at every instant. *)

open Regionsel_isa
module Gauges = Regionsel_engine.Gauges

type t

val create : Gauges.t -> t

val record : t -> Compact_trace.t -> unit
(** File one observed trace under its entry address. *)

val count : t -> Addr.t -> int
(** Observed traces currently stored for the entry. *)

val take : t -> Addr.t -> Compact_trace.t list
(** Remove and return the entry's traces in observation order, returning
    their bytes to the gauge. *)

val total_bytes : t -> int
val n_entries : t -> int

val save : t -> (int -> unit) -> unit
(** Checkpoint support: every stored trace, keyed by entry. *)

val load : program:Program.t -> t -> Snap.reader -> unit
(** Fill a freshly created store from a {!save} stream.  Every trace must
    replay from its entry on [program], and the byte count must equal
    both the traces' bytes and the shared gauge's observed bytes (the
    gauges section restores first; with one store per run the two
    agree).  Does not touch the gauges.  Raises [Failure] or
    [Invalid_argument] on a stream that fails these checks. *)
