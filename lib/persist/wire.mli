(** Byte-level primitives shared by the three binary formats: RSNP
    snapshots ({!Persist}), REVL recordings and batches ({!Event_log}) and
    the daemon's frames ([Regionsel_serve.Proto]).

    Every integer on disk and on the wire is a big-endian u32.  An OCaml
    int rides as two of them: {!lo_word} and {!hi_word}, the high word
    keeping bit 30 as the sign ([asr 32]), which reconstructs every 63-bit
    int exactly.  Which word comes first is each format's own choice.
    Checksums are computed in place over a range of the buffer being
    written or read, so no codec copies bytes just to checksum them.

    All three read through one bounded {!cursor}, the byte-level twin of
    [Snap.reader]; each turns its [Failure]s into its own typed error. *)

val set_u32 : bytes -> int -> int -> unit
(** [set_u32 b pos v] stores the low 32 bits of [v] at [pos]. *)

val bu32 : Buffer.t -> int -> unit
(** Append the low 32 bits of [v]. *)

val ru32 : bytes -> int -> int
(** The u32 at [pos], in [[0, 2^32)].
    @raise Invalid_argument if it runs past the buffer. *)

val lo_word : int -> int
val hi_word : int -> int

val int63 : hi:int -> lo:int -> int
(** Rebuild any int from its words; the signed reader (RSNP).
    @raise Failure if [hi > 0x7FFFFFFF], which no {!hi_word} produces. *)

val nonneg63 : hi:int -> lo:int -> int
(** Rebuild a non-negative int from its words (REVL event counts, daemon
    frames).  [hi >= 0x40000000] would land in the sign bit or wrap away,
    turning a crafted header into a negative or aliased value.
    @raise Failure on such a high word. *)

val seed_lo : int64 -> int
val seed_hi : int64 -> int
val seed_of_words : hi:int -> lo:int -> int64

val crc32 : ?crc:int -> bytes -> pos:int -> len:int -> int
(** CRC32 (IEEE 802.3) of [len] bytes at [pos].  [~crc], the CRC of some
    preceding bytes, continues it: [crc32 ~crc:(crc32 a) b] is the CRC of
    [a] followed by [b], wherever the two ranges lie.
    @raise Invalid_argument if the range runs past the buffer. *)

(** {1 Reading} *)

type cursor
(** A read position in [[pos, pos + len)] of a buffer; it never reads
    past that range, even where the buffer goes on.  Each reader takes
    [what], the field's name, and raises [Failure] naming it when the
    range holds too few bytes. *)

val cursor : bytes -> pos:int -> len:int -> cursor
(** @raise Invalid_argument if the range is not inside the buffer. *)

val u8 : cursor -> string -> int

val u32 : cursor -> string -> int
(** Compose two words with {!int63}, {!nonneg63} or {!seed_of_words},
    binding each with its own [let] in wire order: labelled arguments
    are evaluated right to left. *)

val string : cursor -> string -> limit:int -> string
(** A u32 length, then that many bytes.  A length over [limit] or over
    the bytes left fails before anything is allocated. *)

val skip : cursor -> string -> int -> int
(** Step over [n] bytes and return where they start, to checksum them or
    take them in place; [skip c what 0] is the current position. *)

val remaining : cursor -> int

val expect_end : cursor -> string -> unit
(** Fails if any byte is left. *)
