(** Compact observed-trace representation (the paper's Figure 14).

    Trace combination must remember up to [T_prof] observed traces per
    profiled entry without paying a full copy for each (Section 4.2.1).  A
    trace is stored as the sequence of its branch outcomes — two bits per
    branch, plus an explicit 32-bit target after each indirect branch — and
    is reconstructed on demand by re-walking the program from the entry
    address, exactly as the paper's optimizer re-decodes instructions.

    Per branch (Figure 14): ["01"] + target for a taken indirect branch
    (including returns), ["10"] for a not-taken conditional, ["11"] for any
    other taken branch; the stream ends with ["00"] followed by the address
    of the trace's last instruction. *)

open Regionsel_isa
module Region = Regionsel_engine.Region

type t

val entry : t -> Addr.t

val size_bytes : t -> int
(** Storage footprint of the encoding, used for the Figure 18 memory
    gauge. *)

val encode : Region.path -> t
(** [encode path] records the branch outcomes along [path].  Outcomes are
    inferred from each block's successor on the path; the final block's
    outcome comes from [path.final_next].
    @raise Invalid_argument on an empty or inconsistent path. *)

val decode : Program.t -> t -> Region.path
(** [decode program t] re-walks [program] from {!entry}, replaying the
    recorded outcomes, and returns the path — [encode] then [decode] is the
    identity on block-aligned paths.
    @raise Invalid_argument if the encoding does not replay on [program]. *)

val save : t -> (int -> unit) -> unit
(** Checkpoint support: the entry, bit length, and raw encoding bytes. *)

val load : Snap.reader -> t
(** Rebuild a trace from a {!save} stream.  Raises [Failure] on malformed
    geometry (decoding against the program still revalidates content). *)
