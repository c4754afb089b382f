(** LEI's branch history buffer (Figures 5 and 6 of the paper).

    A bounded circular buffer of the most recently interpreted taken
    branches, with a hash index from target address to that target's most
    recent occurrence.  If an inserted branch's target is already in the
    buffer, a cycle has just executed and the buffer slice between the two
    occurrences spells out its path.

    Entries carry a [follows_exit] flag: the entry recorded immediately
    after execution left the code cache, which is LEI's analogue of NET's
    trace-exit profiling points (line 9 of Figure 5 accepts a cycle whose
    earlier occurrence "follows an exit from the code cache").

    Each entry has a monotonically increasing sequence number; sequence
    numbers identify occurrences stably across wrap-around and truncation.

    Storage is parallel unboxed arrays, so the per-branch operations —
    {!insert}, {!find_seq}, {!follows_exit_at}, {!length} — allocate
    nothing; the {!entry}-returning accessors materialize records on demand
    and are meant for the cold (trace-formation and testing) paths. *)

open Regionsel_isa

type entry = { src : Addr.t; tgt : Addr.t; follows_exit : bool; seq : int }

type t

val create : capacity:int -> t
(** Requires [capacity >= 1]. *)

val capacity : t -> int

val length : t -> int
(** Entries currently held (at most [capacity]).  O(1): a live counter is
    maintained across insertion, eviction and truncation. *)

val find_seq : t -> Addr.t -> int
(** The sequence number of the most recent live occurrence of the address
    as a branch target, or [0] if absent — the allocation-free core of the
    paper's [HASH-LOOKUP(Buf.hash, tgt)]. *)

val follows_exit_at : t -> seq:int -> bool
(** The [follows_exit] flag of the live entry with the given sequence
    number ([false] if the entry is dead). *)

val find : t -> Addr.t -> entry option
(** {!find_seq} materialized as an entry record. *)

val insert : t -> src:Addr.t -> tgt:Addr.t -> follows_exit:bool -> int
(** Append a taken branch, evicting the oldest entry when full, and update
    the hash index to this newest occurrence.  Returns the new entry's
    sequence number. *)

val entries_after : t -> seq:int -> entry list
(** Live entries with sequence number strictly greater than [seq], oldest
    first: the just-completed cycle's branches, when called with the
    previous occurrence's sequence number. *)

val truncate_after : t -> seq:int -> unit
(** Drop all entries with sequence number strictly greater than [seq] —
    line 13 of Figure 5 ("remove all elements of Buf after old"). *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: serialize the slot arrays verbatim (stale slots
    included) and the full hash index (stale bindings included — they are
    load-bearing: a stale binding shadows older live occurrences, and
    rebuilding the index from live entries would resurrect them). *)

val load : t -> Snap.reader -> unit
(** Fill a freshly created buffer of the same capacity from a {!save}
    stream.  Raises [Failure] on capacity mismatch or a malformed
    stream. *)
