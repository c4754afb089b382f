(** Growable bit buffers: the substrate of the Figure 14 compact trace
    encoding, the REVL event payload and the RSNP section payloads.

    A writer appends whole fields of 0 to 32 bits per call; a reader takes
    them back the same way.  Bits are written most-significant-first
    within each byte and a field's bits keep their order, so writing a
    [k]-bit field is the same as writing its [k] bits one at a time from
    the top; the final partial byte is zero-padded.  The serialized form is
    therefore deterministic and independent of how the bits were split
    into fields. *)

module Writer : sig
  type t

  val create : unit -> t
  val add_bit : t -> bool -> unit

  val add_bits : t -> int -> int -> unit
  (** [add_bits t v k] appends the low [k] bits of [v], most significant
      first.
      @raise Invalid_argument unless [0 <= k <= 32] and [0 <= v < 2^k]. *)

  val length_bits : t -> int

  val byte_length : t -> int
  (** Bytes needed to store the bits written so far: the memory-cost of the
      encoding (Figure 18). *)

  val contents : t -> bytes
  (** The written bits, final partial byte zero-padded. *)

  val blit : t -> bytes -> pos:int -> unit
  (** [blit t dst ~pos] stores {!contents} into [dst] at [pos] without an
      intermediate copy: [byte_length t] bytes.
      @raise Invalid_argument if they do not fit. *)
end

module Reader : sig
  type t

  val create : ?pos:int -> bytes -> n_bits:int -> t
  (** Read [n_bits] bits starting at byte [pos] (default 0) of the buffer.
      @raise Invalid_argument if those bits run past the buffer. *)

  val read_bit : t -> bool

  val read_bits : t -> int -> int
  (** [read_bits t k] reads a [k]-bit field written by
      {!Writer.add_bits}.
      @raise Invalid_argument unless [0 <= k <= 32]. *)

  val remaining_bits : t -> int

  exception Out_of_bits
  (** Raised by a read that would go past [n_bits]; the reader does not
      move. *)
end
