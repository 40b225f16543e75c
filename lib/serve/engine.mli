(** The serve engine: fair round-robin scheduling of checkpointed jobs
    over the segmented runner, one segment per cooperative tick.

    Single-threaded by design: the daemon alternates between one socket
    request and one {!tick}, so every public operation happens between
    segments — the only moment a job's state is durable.  Each job's
    process-global fault/counter/telemetry state is swapped in around
    its segment and captured back into the job's checkpoint state by the
    runner, so jobs never see each other's instrumentation and a crash
    at any point loses nothing the ledger claims.

    Robustness per job: a host-seconds deadline budget enforced per
    segment (expiry → [degraded]); bounded retry with exponential
    backoff on {!Mdfault.Unrecovered} (the retried segment restarts from
    its durable input checkpoint with post-failure fault-stream
    positions — fresh draws); invariant violations re-execute the
    segment up to twice, then [failed]; storage errors (injected by
    {!Mdio} or real) during a segment, its checkpoint save, artifact
    writes, or the segment ledger record route to the same bounded
    retry — the durable input checkpoint is intact and nothing was
    acked.  {!Mdio.Crashed} (simulated process death) is never caught:
    it unwinds through every operation so the crash sweep can observe
    exactly what a kill -9 leaves on disk. *)

type config = {
  cfg_dir : string;      (** serve root: ledger.jsonl + jobs/<id>/ *)
  cfg_max_queue : int;   (** admission bound on live jobs *)
  cfg_retries : int;     (** fault-death retry budget per job *)
  cfg_backoff_s : float; (** base retry backoff, doubled per attempt *)
  cfg_resume : bool;     (** replay an existing ledger instead of failing *)
}

type t

val create : config -> (t, string) result
(** Take the serve directory's single-writer guard and open the ledger.
    With [cfg_resume] and an existing ledger, replay it and re-adopt
    every non-terminal job at its newest valid checkpoint generation
    (appending a [resumed] record each).  A non-terminal job whose spec
    fails {!submit}'s validation ends [failed] with the reason instead.
    Without [cfg_resume], an existing ledger is an [Error] — never
    silently forked. *)

val submit : t -> Ledger.jobspec -> (string * string, string) result
(** Validate (geometry and engine through {!Mdports.Force_path.setup}),
    admit (bounded queue — [Error "rejected: overload ..."] when full),
    lock the job directory, append the [submitted] record,
    and only then enqueue: an [Ok] ack means the record is durable, so
    a crash after the ack can never lose the job, and a ledger that
    cannot be written ({!Ledger.Write_failed}) is a retryable
    rejection, never a silent loss.  An empty [js_id] gets a generated
    one.  Returns [(id, job_dir)]. *)

val cancel : t -> string -> (int, string) result
(** Cancel a live job between segments; returns its completed step. *)

val status_json : t -> string option -> (string, string) result
(** JSON status reply for one job or the whole queue. *)

val tail : t -> job:string -> limit:int -> string list
(** Last intact ledger records for [job] ([""] = all). *)

val tick : t -> now:float -> bool
(** Run at most one segment of the fairly-picked job; [false] when idle
    (nothing runnable, draining, or shut down). *)

val has_runnable : t -> now:float -> bool
val next_eligible : t -> float option
(** Earliest host time any live job becomes runnable (backoff gates). *)

val request_drain : t -> unit
(** Stop admitting and scheduling; the daemon observes {!draining} and
    calls {!shutdown}. *)

val draining : t -> bool

val shutdown : t -> unit
(** Graceful drain: append a [drained] record per live job (their
    checkpoints are already durable), close the ledger, release every
    lock.  Idempotent. *)

val abandon : t -> unit
(** Test hook: drop everything without drain records — on-disk state is
    exactly what kill -9 leaves.  Locks are released only to free the
    in-process registry for a restarted engine in the same process. *)
