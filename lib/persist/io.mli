(** Retry-safe fd I/O: the write/read discipline shared by snapshots
    ({!Persist}), recordings ({!Event_log}), the metrics exporters and the
    daemon's socket code.

    [Unix.write] can return short, and with live signal handlers (the
    daemon's SIGTERM shutdown path) it can also fail with [EINTR]
    mid-artifact; non-blocking sockets add [EAGAIN].  Everything here
    retries all three, so a snapshot save cannot abort half-written
    because a signal landed. *)

val write_all : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> unit
(** Write the whole range, retrying short writes and [EINTR]; on
    [EAGAIN]/[EWOULDBLOCK] (non-blocking fd) wait for writability and
    continue.  Any other [Unix.Unix_error] propagates. *)

val read : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> int
(** One read, retrying [EINTR] and waiting out [EAGAIN]; returns the
    byte count ([0] = end of stream / peer closed). *)

val really_read : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> bool
(** Fill the whole range; [false] if the stream ended first. *)

val write_atomic : ?crash_after_bytes:int -> path:string -> Bytes.t -> unit
(** The persist layer's atomic-publish pattern: write to [path ^ ".tmp"],
    fsync, rename over [path] — a reader (concurrent scraper, crashed
    writer) never observes a torn file.  With [crash_after_bytes = n] the
    write stops after [n] bytes of the temporary and neither fsyncs nor
    renames — the simulated mid-write crash: [path] keeps whatever it
    held before. *)

val read_file : string -> bytes
(** The whole file, read straight into the returned buffer.
    @raise Sys_error when it cannot be opened. *)
