(** The warm-state codec: how a subsystem's state becomes the flat int
    stream of a snapshot section, and back.

    Writing is a plain [int -> unit] sink plus a few helpers for the
    shapes that recur (flags, floats, counted lists, key-sorted tables).
    Reading goes through an abstract {!reader} that knows how many ints
    are left, so every count is checked against the stream before
    anything is sized from it: a forged count of 2^40 is a [Failure], not
    an allocation.  Every reader function raises [Failure] on malformed
    input, a short stream included.

    A section loader decodes its whole stream and returns a commit; the
    snapshot layer ([Regionsel_persist.Persist]) runs the commit only when
    the decode succeeded and consumed the stream exactly (DESIGN.md
    "Snapshot format & recovery semantics"). *)

(** {1 Writing} *)

type writer = int -> unit

val emit_bool : writer -> bool -> unit

val emit_float : writer -> float -> unit
(** The IEEE bits as two 32-bit halves, low half first. *)

val emit_list : writer -> ('a -> unit) -> 'a list -> unit
(** The length, then each element. *)

val emit_array : writer -> ('a -> unit) -> 'a array -> unit

val emit_pairs : writer -> (int * int) list -> unit
(** A table as its length then key, value, key, value…  Callers pass the
    pairs key-sorted, so the bytes do not depend on the table's history. *)

val ints : (writer -> unit) -> int array
(** Everything a save function writes, in order. *)

(** {1 Reading} *)

type reader

val decode : int array -> (reader -> 'a) -> 'a
(** Run a decoder over a stream and insist it read every int.
    @raise Failure when the decoder does, or when ints are left over. *)

val int : reader -> int

val nat : reader -> int
(** A non-negative int. *)

val tag : reader -> n:int -> int
(** An int in [[0, n)]: a variant tag, an index, a cursor or a 32-bit
    limb ([~n:0x1_0000_0000]). *)

val bool : reader -> bool

val len : reader -> int
(** A count of items still to come: non-negative and at most the ints
    left, since every item takes at least one int. *)

val float : reader -> float

val list : reader -> (reader -> 'a) -> 'a list
(** A {!len}, then that many items in stream order. *)

val array : reader -> (reader -> 'a) -> 'a array

val pairs : reader -> (int * int) list
(** What {!emit_pairs} writes. *)
