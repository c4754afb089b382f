(** Abstract branch-event streams.

    The paper's substitution argument (Section 2.3) is that every selection
    algorithm consumes only the executed branch stream — [(block, taken?,
    target)] plus static layout — so the selection/cache engine should not
    care where that stream comes from.  This module is the seam: a stream
    is a source of branch events delivered through the caller's reusable
    {!Interp.step} record (the same allocation-free discipline as the step
    loop), with two producers — the live interpreter ({!of_interp}) and a
    recorded-event replayer ({!of_events}) — and the simulator as the one
    consumer.

    The parity contract: a run consuming {!of_events} over a recording of
    itself is bit-identical — metrics, telemetry, PRNG-driven fault
    schedules — to the live run, across every policy and workload.  The
    on-disk codec for recordings lives in [Regionsel_persist.Event_log]
    (the persist layer owns framing and checksums). *)

type events
(** A compact in-memory recording: packed int arrays, ~2 words per event. *)

type t
(** A stream: pulls the next branch event into a caller-owned step record.
    Allocation-free per event. *)

val recorder : ?capacity:int -> unit -> events
(** A fresh, empty recording to pass as [Simulator.create ~record].
    [capacity] (default 1024) presizes it: a decoder that knows its event
    count appends without growing.
    @raise Invalid_argument on a negative capacity. *)

val append : events -> Interp.step -> unit
(** Append the event a filled step record describes.  Amortized O(1). *)

val append_event : events -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** Append one event by parts (the file codec's decode path).
    @raise Invalid_argument on a negative block id. *)

val length : events -> int

val truncate : events -> int -> unit
(** [truncate ev n] drops every event from index [n] on: the rollback of
    a failed append run.
    @raise Invalid_argument unless [0 <= n <= length ev]. *)

val get_block_id : events -> int -> int
val get_taken : events -> int -> bool
val get_next : events -> int -> Regionsel_isa.Addr.t

val iter :
  (block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit) -> events -> unit

val equal : events -> events -> bool

val of_interp : Interp.t -> t
(** The live producer: each pull executes one block of the program. *)

val of_events : events -> t
(** The replay producer: each pull delivers the next recorded event; after
    the last one the stream reports a halt, exactly like an interpreter
    whose program finished. *)

val next_into : t -> Interp.step -> bool
(** Pull one event into the record; [false] when the stream has ended. *)
