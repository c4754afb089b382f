(** A persistent pool of OCaml 5 domains: ordered parallel map and
    work-stealing iteration.

    {!create} spawns [n_domains - 1] workers once; between rounds they
    park on a condition variable.  Each {!iter} or {!map} call is one
    round: it wakes the workers, runs the same stealing loop on the
    calling domain, and returns once every worker has checked in (a full
    barrier).  A round of at most one element, or any round on a
    one-domain pool, runs inline on the caller, left to right, and wakes
    no one.  If a task raises, no further tasks start, and the first
    exception (in completion order) is re-raised on the caller with its
    backtrace after every worker has checked in; the pool stays usable.
    Pools must be closed (the runtime caps live domains), and a pool is
    driven by one domain at a time, never from inside its own round.

    Tasks must not depend on unforced {!Stdlib.Lazy} values shared
    between them: force those on the calling domain first (see
    {!Regionsel_workload.Spec.image}). *)

val default_n_domains : unit -> int
(** The [REGIONSEL_DOMAINS] environment variable if set, otherwise
    {!Domain.recommended_domain_count}; always at least 1 (zero or negative
    values clamp to sequential execution rather than erroring, so scripts
    can force single-domain runs with [REGIONSEL_DOMAINS=0]).

    @raise Invalid_argument if the variable is set but not an integer. *)

type t

val create : ?n_domains:int -> unit -> t
(** A pool of [n_domains] domains (default {!default_n_domains}, at least
    1), the caller included: a one-domain pool spawns nothing. *)

val close : t -> unit
(** Wake and join the workers.  Idempotent. *)

val with_pool : ?n_domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and closes it on every exit. *)

val size : t -> int
(** Worker domains spawned: [n_domains - 1] while open, 0 once closed. *)

val iter : t -> ('a -> unit) -> 'a array -> unit
(** [iter pool f tasks] applies [f] to every element once.  Each element
    is claimed by exactly one domain, so [f] may mutate state its own
    element owns (the multi-stream engine's batch advance).
    @raise Invalid_argument if the pool is closed. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f tasks] is one {!iter} round that returns the results in
    submission order whichever domain ran which task, so output built
    from them is deterministic by construction.
    @raise Invalid_argument if the pool is closed. *)
