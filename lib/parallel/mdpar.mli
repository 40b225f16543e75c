(** Persistent domain pool for host-side parallelism.

    The simulator's virtual device-time models are sequential and
    deterministic by construction; this module parallelizes the *host*
    work that regenerates the paper's artifacts — force kernels,
    neighbour-list builds, and the experiment harness — across OCaml 5
    domains.  Design constraints, in order:

    - {b Determinism.}  Every primitive produces the same result for
      any pool size: work items are indexed and results land in slots
      keyed by work item (never by worker), so disjoint-write kernels
      (one atom row per index) are bit-identical to serial.
    - {b No spawn-per-call.}  Workers are spawned once and parked on a
      condition variable; dispatching a parallel region costs two mutex
      handshakes per worker instead of a [Domain.spawn] (~100µs) per
      call.
    - {b Nesting safety.}  A parallel region entered from inside a
      worker recruits only *idle* workers and the caller always
      processes work itself, so nested regions degrade to serial
      execution instead of deadlocking.
    - {b Serial fallback.}  A pool of size 1 never spawns and runs every
      primitive inline — byte-for-byte the sequential program. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (none when
    [domains = 1]).  [domains] defaults to {!default_domains}[ ()].
    Raises [Invalid_argument] if [domains <= 0].  Prefer {!get} unless
    you need a pool with an explicit lifetime ({!shutdown}). *)

val get : ?domains:int -> unit -> t
(** The shared pool registry: returns a (cached) pool of the requested
    size, spawning it on first use.  Cached pools are shut down via
    [at_exit].  Without [?domains] the size is {!default_domains}[ ()]. *)

val size : t -> int
(** Number of participating domains (workers + the calling domain). *)

val shutdown : t -> unit
(** Join the pool's workers.  Subsequent use of the pool runs serially.
    Idempotent.  Called automatically at exit for {!get}-cached pools. *)

val set_default_domains : int -> unit
(** Override the default pool size (the [--domains] CLI flag).  Raises
    [Invalid_argument] on non-positive sizes. *)

val default_domains : unit -> int
(** Resolution order: {!set_default_domains} override, else the
    [MDSIM_DOMAINS] environment variable, else
    [Domain.recommended_domain_count ()]. *)

val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] for every
    [lo <= i <= hi] (inclusive; empty when [hi < lo]).  Indices are
    handed out in chunks of [chunk] (default: range/(4·size), at least
    1) from a shared counter.  The body must only write state disjoint
    per index.  Exceptions from any participant are re-raised in the
    caller after the region quiesces. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map] (one work item per element). *)
