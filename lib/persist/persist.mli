(** Crash-safe warm-state snapshots (checkpoint/restore).

    A snapshot captures the full warm state of a simulator run — code
    cache, policy and profiler state, blacklist, statistics, every PRNG
    stream position — as a versioned, length-prefixed binary image with a
    CRC32 per section, so that a run restored from a snapshot taken at
    step [N] continues {e bit-identically} to the uninterrupted run.

    The format is corruption-tolerant by construction (see DESIGN.md
    "Snapshot format & recovery semantics"): each section is framed with
    its own tag, version, byte length and checksum, so a torn, truncated
    or bit-flipped section is {e dropped} — the owning subsystem re-warms
    from scratch — and reported in the {!report} rather than aborting the
    restore.  Only a corrupt or mismatched {e header} (magic, format
    version, program/seed/policy identity, header CRC) raises
    {!Hard_corruption}: with the header gone there is no trustworthy
    frame to recover anything from.

    Files are written atomically: the image goes to [path ^ ".tmp"],
    which is fsynced and then renamed over [path] — a crash mid-write
    (simulated with [crash_after_bytes]) leaves the previous snapshot
    intact. *)

module Simulator = Regionsel_engine.Simulator

exception Hard_corruption of string
(** The snapshot header is unusable (bad magic, unsupported format
    version, checksum mismatch) or names a different run (program shape,
    seed or policy disagree with the restoring run). *)

type degraded = {
  section : string;  (** Section name, e.g. ["cache"], or ["<frame>"]. *)
  reason : string;  (** Why it was dropped, e.g. ["checksum mismatch"]. *)
}

type report = {
  restored : string list;  (** Sections loaded successfully, in file order. *)
  degraded : degraded list;
      (** Sections dropped; each owning subsystem kept its fresh
          (run-start) state and re-warms. *)
  skipped : int;
      (** Frames with an unknown tag or naming a section the restoring run
          does not have active (e.g. telemetry without a sink): skipped,
          not an error — forward compatibility. *)
}

val clean : report -> bool
(** No degraded sections. *)

(** {1 In-memory image} *)

val encode : seed:int64 -> policy:string -> Simulator.internals -> bytes
(** Serialize every section of the run into a snapshot image.  Pure
    observation: the run is unaffected. *)

val decode_into : bytes -> seed:int64 -> policy:string -> Simulator.internals -> report
(** Validate the header against the restoring run's identity, then load
    each section that survives its own CRC/version/structure checks, once
    and in load order: a repeated or out-of-order frame is degraded.
    @raise Hard_corruption on an unusable or mismatched header. *)

(** {1 Files} *)

val save_file :
  ?crash_after_bytes:int ->
  path:string ->
  seed:int64 ->
  policy:string ->
  Simulator.internals ->
  unit
(** {!encode} then write atomically (tmp + fsync + rename).  With
    [crash_after_bytes = n] the write stops after [n] bytes of the
    temporary file and neither fsyncs nor renames — the simulated
    mid-checkpoint crash: [path] keeps whatever it held before. *)

val session_file :
  dir:string -> tenant:string -> bench:string -> policy:string -> seed:int64 -> string
(** The canonical snapshot path for a daemon tenant session: a
    filesystem-safe stem derived from [tenant] plus a CRC32 of the full
    [(tenant, bench, policy, seed)] identity, so reconnecting under a
    different identity resolves to a different file (a fresh session)
    rather than tripping {!restore_file}'s header check. *)

val restore_file : path:string -> seed:int64 -> policy:string -> Simulator.internals -> report
(** Read [path] and {!decode_into} it.
    @raise Sys_error when the file cannot be read.
    @raise Hard_corruption as {!decode_into}. *)
