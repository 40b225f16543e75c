(** The Cray MTA-2 machine model.

    Execution is functional (loop bodies really run, in double precision —
    the paper's MTA port is the only double-precision one); time is
    modelled per loop:

    - a {e parallel} loop with [n] iterations running on [P] processors
      with [S] streams each costs
      [max(issue bound, latency bound) + region overhead], where the issue
      bound is one instruction per processor per cycle and the latency
      bound is the single-stream iteration cost divided by the concurrency
      [min(n, P*S)] — the textbook MTA saturation condition ("keep its
      processors saturated, so that each processor always has a thread
      whose next instruction can be executed");
    - a {e serial} loop (the compiler refused to parallelize it) runs on
      one stream and pays the full uniform memory latency on every
      reference — this is the "partially multithreaded" case of Fig. 8.

    Whether a loop is parallel or serial is decided by {!Loop.parallelizable},
    i.e. by the modelled compiler analysis, not by the caller. *)

type t

val create : Config.t -> t
val time : t -> float
val ledger : t -> Ledger.t
(** Invariant (tested): ledger total = machine time. *)

val for_loop : t -> loop:Loop.t -> n:int -> f:(int -> unit) -> unit
(** Run [f 0 .. f (n-1)] (sequentially in host order; bodies must be safe
    to run in any interleaving as on the real machine) and charge time
    according to the compiler's parallelization decision for [loop]. *)

val charged_region : t -> loop:Loop.t -> n:int -> f:(unit -> 'a) -> 'a
(** Like {!for_loop} but the caller owns the iteration structure: [f] is
    invoked once and should perform the whole region's work ([n]
    iterations of [loop]'s body, in whatever loop shape is fastest to
    execute host-side).  Timing and the concurrency visible to
    {!charge_sync_op} are identical to [for_loop]. *)

val parallel_seconds : t -> loop:Loop.t -> n:int -> float
(** The cost model itself (no execution): time a parallel run of [n]
    iterations would take.  Exposed for tests and capacity planning. *)

val serial_seconds : t -> loop:Loop.t -> n:int -> float

val concurrency : t -> n:int -> int
(** [min(n, procs * streams)] — the number of iterations in flight. *)

val charge_sync_op : t -> unit
(** Account one full/empty-bit operation: a [readfe] or a [writeef]. *)

val charge_sync_ops : t -> int -> unit
(** [charge_sync_ops t k] accounts [k] full/empty-bit operations:
    machine time, the [Sync] ledger category and [mta/sync_retries]
    end bitwise as after [k] calls of {!charge_sync_op}, and so do the
    [mta-retry] fault draws when that stream is live.  Raises
    [Invalid_argument] if [k < 0]. *)
