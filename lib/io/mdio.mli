(** The durable-write shim: every write path that backs a durability
    promise — checkpoint generations ({!Mdckpt.save}) and their GC, the
    serve job ledger, the run manifest, telemetry streams, and the
    report, metrics, counters, trace and fault-log artifacts — issues
    its syscalls through this module, which makes the filesystem a
    first-class deterministically faulty device in the {!Mdfault}
    sense.

    Three layers:

    - {b Op counting.}  Every shim operation (open / write / fsync /
      rename / dir-fsync / close / remove) increments one global
      counter.  The count is the coordinate system of the crash sweep:
      a reference run records its op schedule, and re-executions kill
      the process at every index of it.
    - {b Storage faults.}  With an active fault plan, write/fsync/rename
      consult the seeded per-site streams ([io-short-write], [io-eio],
      [io-enospc], [io-fsync-fail], [io-rename-fail]) in the standard
      replayable style and raise genuine {!Unix.Unix_error}s — injected
      and real disk errors take the same recovery paths.  Short-write
      and ENOSPC persist a deterministic prefix first (torn record).
      With every io rate at zero (or no plan) the shim performs exactly
      today's direct syscalls: no draws, no events, no counters.
    - {b Simulated process death.}  When a crash point is armed (via
      {!set_crash_point} or the plan's [io-crash-point=K]), the K-th op
      applies its torn prefix (writes only), the shim goes {e dead}, and
      {!Crashed} is raised.  While dead every subsequent op is silently
      dropped — unwind-time finalizers (telemetry close, artifact
      writes) cannot persist anything a real kill -9 would not have —
      though {!close} still releases descriptors so the in-process
      sweep does not leak them.  {!reset} brings the shim back for the
      recovery run. *)

exception Crashed of int
(** Simulated process death at the given op index.  Must propagate:
    recovery code never catches it (the crashcheck driver does). *)

type t
(** A shimmed writable file handle (unbuffered [Unix] descriptor). *)

val openw : ?append:bool -> string -> t
(** Open [path] for writing (create 0o644; truncate unless [append]).
    One [Open] op. *)

val write : t -> string -> unit
(** Write the whole string or raise.  One [Write] op; fault sites
    [io-short-write], [io-eio], [io-enospc]. *)

val fsync : t -> unit
(** One [Fsync] op; fault site [io-fsync-fail]. *)

val close : t -> unit
(** One [Close] op.  Always releases the descriptor (even dead).
    Counted but never a crash point: closing changes nothing about
    what is durable, and closes run inside unwind handlers where a
    raise would mask the in-flight {!Crashed}. *)

val close_noerr : t -> unit
(** [close] swallowing errors — for failure-path cleanup. *)

val truncate : t -> int -> unit
(** [ftruncate] to [len] — the ledger's poison-repair primitive.  Not
    counted and never faulted (a repair path must converge), but still
    dropped while dead. *)

val size : t -> int
(** Current file size via [fstat] (uncounted, unfaulted). *)

val remove : string -> unit
(** [unlink]; raises {!Unix.Unix_error} on failure.  One [Remove] op
    (counted for the crash sweep; no fault site of its own). *)

val write_atomic : ?fsync_dir:bool -> path:string -> string -> unit
(** Durable atomic replace through the shim: tmp + write + fsync +
    close + rename (+ directory fsync).  On an injected or real error
    the [.tmp] is removed; on {!Crashed} it is left behind — exactly
    what a real crash leaves — and recovery must ignore it.  Artifacts
    that are not recovery inputs (reports, metrics, counters, traces,
    CSVs) pass [~fsync_dir:false]: the fsync before the rename already
    keeps a crash from publishing an empty file. *)

(** {1 Sweep controls} *)

val op_count : unit -> int
(** Ops issued since the last {!reset}. *)

val reset : unit -> unit
(** Zero the op counter, clear the explicit crash point, and revive. *)

val set_crash_point : int option -> unit
(** Arm (or disarm) a crash at the given op index — overrides the
    plan's [io-crash-point]. *)

val alive : unit -> bool
