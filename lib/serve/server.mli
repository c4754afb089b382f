(** The streaming region-selection daemon: a Unix-domain-socket front end
    over {!Regionsel_engine.Multi_stream.Engine}.

    One process, one event loop.  Streaming connections (Hello, Events*,
    Fin — see {!Proto}) each attach one tenant; between socket activity
    the loop runs batch-barrier rounds, each tenant's advance bounded by
    the events its connection has ingested so far.  Control connections
    serve live exports (Prometheus snapshot, JSONL tail) from per-tenant
    metrics recorders sampled at every barrier.  A [ctrl prom] scrape is
    O(tenants), not O(retained windows): it reads each recorder's
    memoized rendering ({!Regionsel_obs.Metrics.recorders_to_prometheus}),
    so a tenant with no new window since the last scrape — every
    finished one — costs one string append per series.

    Admission control answers Hello with a typed Reject when tenant slots
    or the shared cache budget saturate.  A connection accepted on a
    descriptor at or past FD_SETSIZE, which [select] cannot watch, gets a
    [Connections_saturated] Reject and is closed at once.  Backpressure bounds each
    connection's ingest backlog to [ingest_max] unconsumed events by
    removing the socket from the read set — the client's writes block in
    the kernel; the daemon never buffers unboundedly — resuming below
    half the bound.  Ingest memory follows the backlog: after every
    engine round the loop releases each attached session's consumed
    chunks ({!Regionsel_engine.Branch_stream.release}), so a session holds
    at most its unconsumed backlog plus one partly consumed 4096-event
    chunk, 16 bytes per event, however long it streams.  The backlog is
    [ingest_max] plus at most the frames of the read that crossed it;
    [ctrl status] shows both per attached tenant ([backlog N],
    [resident N]).  A tenant whose simulation is exhausted (step budget
    spent or program halted) is never paused: its backlog cannot drain,
    so the remaining events are absorbed to reach the Fin behind them.
    Outgoing frames are queued per connection and flushed through the
    loop's writability set, so a peer that stops draining its replies
    stalls only itself (and is dropped once its unsent queue passes a
    bound).

    Sessions survive disconnects and daemon restarts: warm state is
    snapshotted through {!Regionsel_persist.Persist.save_file} on
    disconnect and on SIGTERM/SIGINT, keyed by
    {!Regionsel_persist.Persist.session_file} identity, and restored when
    the same (tenant, bench, policy, seed) says Hello again; Welcome
    carries [resume_step] and the client resends events from there, which
    makes a resumed run bit-identical to an uninterrupted one.  A
    {!Regionsel_check.Check.Check_violation} — e.g. from the post-restore
    cache audit — dumps the flight recorder to [state_dir/flight.jsonl]
    and re-raises (the binary maps it to exit code 3). *)

type config = {
  socket_path : string;
  state_dir : string;  (** Session snapshots + flight dumps live here. *)
  budget_bytes : int option;  (** Shared code-cache budget across tenants. *)
  quota_floor : int;  (** Admission floor for per-tenant fair shares. *)
  max_tenants : int;
  batch_steps : int;
  ingest_max : int;  (** Per-tenant unconsumed-event bound (backpressure). *)
  n_domains : int option;
  metrics_keep : int;  (** Windows retained per tenant recorder. *)
  verbose : bool;
}

val default_config : socket_path:string -> state_dir:string -> config

val wants_read : backlog:int -> high:int -> paused:bool -> bool
(** The backpressure hysteresis, exposed pure for testing: pause reads at
    [high] unconsumed events, resume only once drained to [high / 2] —
    a tenant hovering at the bound does not flap in and out of the read
    set. *)

val serve : config -> unit
(** Bind, listen and run until a SIGTERM/SIGINT or a [shutdown] control
    command; on the way out (a crash included) every attached tenant is
    snapshotted, the engine's worker domains are joined and the socket
    is unlinked.  Replaces the process's SIGTERM/SIGINT/SIGPIPE
    handlers for the duration.
    @raise Invalid_argument on a non-positive [batch_steps]/[ingest_max].
    @raise Regionsel_check.Check.Check_violation after dumping the flight
    recorder, if a sanitizer invariant fails. *)
