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
(** A compact in-memory recording: two ints (16 bytes) per event, in
    fixed chunks of {!chunk_len} events under a spine of one pointer per
    chunk.  Appending fills the tail chunk and never copies an event, so
    a recording of unknown length costs no growth copies (there is no
    capacity to presize).  Indices stay global: event [i] is event [i]
    for the recording's whole life.

    A consumer that only reads forward (the daemon's session ingest) can
    {!release} the chunks it has consumed, so the recording holds its
    unconsumed tail plus at most one partly consumed chunk.  Reading a
    released index — by a getter, {!iter_range}, {!iter}, {!equal} or a
    replay pull — raises [Invalid_argument]; no read ever touches a
    released slot. *)

type t
(** A stream: pulls the next branch event into a caller-owned step record.
    Allocation-free per event. *)

val chunk_len : int
(** Events per chunk (4096).  A constant of the representation, not a
    setting. *)

val recorder : unit -> events
(** A fresh, empty recording to pass as [Simulator.create ~record]. *)

val append : events -> Interp.step -> unit
(** Append the event a filled step record describes.  O(1), no copy. *)

val append_event : events -> block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit
(** Append one event by parts (the file codec's decode path).
    @raise Invalid_argument on a negative block id. *)

val length : events -> int
(** The number of events ever appended and not truncated away, released
    ones included. *)

val resident : events -> int
(** The events held in unreleased chunks: [length] minus the released
    prefix. *)

val truncate : events -> int -> unit
(** [truncate ev n] drops every event from index [n] on: the rollback of
    a failed append run.  The chunks past the cut stay allocated for the
    appends that follow; a live replay positioned past [n] reports a halt
    until appends reach it again, then reads the new events.
    @raise Invalid_argument unless [released <= n <= length ev]. *)

val release : events -> upto:int -> unit
(** [release ev ~upto] frees every whole chunk below index [upto]; a
    chunk partly at or past [upto] is kept.  Releasing is monotone: an
    [upto] below an earlier one frees nothing.  Every later read of a
    released index raises [Invalid_argument], including a replay pull by
    a reader that was mid-chunk when its chunk was freed.
    @raise Invalid_argument unless [0 <= upto <= length ev]. *)

val get_block_id : events -> int -> int
val get_taken : events -> int -> bool

val get_next : events -> int -> Regionsel_isa.Addr.t
(** Random access to event [i].
    @raise Invalid_argument on an index released or outside the
    recording. *)

val iter_range :
  events -> pos:int -> len:int -> (int array -> first:int -> count:int -> unit) -> unit
(** [iter_range ev ~pos ~len f] hands events [pos .. pos+len-1] to [f]
    one chunk at a time, in order: [f slots ~first ~count] covers the
    chunk's events [first .. first+count-1], event [k] of the chunk being
    [slots.(2k) = (block_id lsl 1) lor taken] and [slots.(2k+1) = next].
    For bulk readers such as the file codec: no per-event lookup.  [f]
    must not write [slots].
    @raise Invalid_argument on a non-empty range that is released or
    outside the recording. *)

val iter :
  (block_id:int -> taken:bool -> next:Regionsel_isa.Addr.t -> unit) -> events -> unit
(** @raise Invalid_argument if any event is released. *)

val equal : events -> events -> bool
(** Same length and the same events.
    @raise Invalid_argument if a compared event is released. *)

val of_interp : Interp.t -> t
(** The live producer: each pull executes one block of the program. *)

val of_events : events -> t
(** The replay producer: each pull delivers the next recorded event; after
    the last one the stream reports a halt, exactly like an interpreter
    whose program finished.  The recording may keep growing while it is
    replayed: a pull that found the end resumes once events are appended.
    A pull is one compare and two loads from the current chunk; the spine
    is read only at a chunk edge, at the recorded end, or after a
    {!truncate} or {!release} (which reset every live replay of the
    recording to re-read it).
    @raise Invalid_argument from a pull at a released index. *)

val next_into : t -> Interp.step -> bool
(** Pull one event into the record; [false] when the stream has ended. *)
