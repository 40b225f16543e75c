(** Durable checkpoint/resume for simulation runs.

    A production MD run is measured in wall-clock days; the paper-scale
    sweeps here are measured in minutes, but the failure model is the
    same — preemption, job-queue kills, wedged devices.  This module
    gives `mdsim run` crash consistency: a versioned on-disk format
    ([mdsim-checkpoint-v1]) written atomically (tmp + fsync + rename +
    directory fsync) with a CRC-32 per section, capturing the {e full}
    deterministic state of a run — the SoA system, the accumulated
    virtual clocks and trajectory records, the complete fault-plan state
    (per-stream PRNG positions, counters, event logs) and the
    virtual-clock counters.  A killed run resumed from its newest valid
    generation converges {e bitwise} to the uninterrupted run, at any
    [--domains] value, with or without an active fault plan.

    The format also reserves an [rng] section (named auxiliary RNG
    streams) and a [thermostat] section.  No run has either, so both are
    always written empty, and {!decode} refuses a file whose sections
    are not: resuming it would silently drop that state.

    Execution is segmented: {!Runner} drives the selected port in
    [every]-step segments, carrying the final system state across
    segment boundaries and checkpointing after each.  Both the
    uninterrupted and the resumed run execute the same segment schedule,
    which is what makes resume exact — device machine state (caches,
    ledgers) is rebuilt per segment deterministically rather than
    serialized. *)

val schema : string
(** ["mdsim-checkpoint-v1"]. *)

val crc32 : string -> int
(** CRC-32 (IEEE/zlib polynomial) of a byte string, in [0, 2^32). *)

exception Corrupt of string
(** Raised internally by the wire readers on truncated or implausible
    data; the public [decode]/[load] entry points catch it and return
    [Error] instead. *)

(** Little-endian wire primitives shared by every durable artifact:
    64-bit ints, bit-exact floats ([Int64.bits_of_float]), length-prefixed
    strings/lists.  Exposed so other serializers (the harness run
    manifest) encode with the same conventions. *)
module Wire : sig
  val u32 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int -> unit
  val f64 : Buffer.t -> float -> unit
  val bool : Buffer.t -> bool -> unit
  val str : Buffer.t -> string -> unit
  val opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
  val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
  val farr : Buffer.t -> float array -> unit

  type reader = { data : string; mutable pos : int }

  val reader : string -> reader
  val need : reader -> int -> unit
  val ru32 : reader -> int
  val ri64 : reader -> int64
  val rint : reader -> int
  val rf64 : reader -> float
  val rbool : reader -> bool
  val rstr : reader -> string
  val ropt : reader -> (reader -> 'a) -> 'a option
  val rlist : reader -> (reader -> 'a) -> 'a list
  val rfarr : reader -> float array

  val fbuf : Buffer.t -> Mdcore.System.buf -> unit
  (** Encode a float64 bigarray stream — same wire layout as {!farr},
      so pre-bigarray checkpoints remain decodable.  Stages the stream
      little-endian on any host and appends it in one blit. *)

  val rfbuf : reader -> Mdcore.System.buf -> unit
  (** Decode a float64 stream written by {!fbuf}/{!farr} directly into
      the destination buffer; raises {!Corrupt} if the stored length
      differs from the buffer's. *)
end

val encode_container : magic:string -> (string * string) list -> string
(** [magic] line followed by named sections, each length-prefixed and
    CRC-32 checksummed. *)

val decode_container :
  magic:string -> string -> ((string * string) list, string) result
(** Inverse of {!encode_container}; [Error] (never an exception) on bad
    magic, truncation, or a CRC mismatch. *)

(** {1 Run state} *)

type progress = {
  seconds : float;                (** accumulated virtual seconds *)
  breakdown : (string * float) list;  (** accumulated ledger categories *)
  pairs_evaluated : int;
  interactions : int;
  records : Mdcore.Verlet.step_record list;
      (** globally renumbered, oldest first *)
  device_label : string;          (** [Run_result.device] of the last segment *)
}

type t = {
  device : string;                (** CLI device name, e.g. ["cell-1spe"] *)
  atoms : int;
  total_steps : int;
  completed : int;                (** steps finished so far *)
  seed : int;
  density : float;
  temperature : float;
  engine : string;                (** force engine: ["pairlist"] or ["n2"] *)
  skin : float;                   (** pairlist skin, in σ (ignored for n2) *)
  every : int;                    (** checkpoint cadence, in steps *)
  keep : int;                     (** generations retained by GC *)
  guard_restores : int;
  system : Mdcore.System.t;
  progress : progress;
  fault : Mdfault.state option;
  counters : Mdprof.cell_state list option;
      (** virtual-clock Mdprof instrument state ({!Mdprof.capture_cells});
          [None] when profiling was disabled, and for checkpoints written
          before the section existed (they still decode) *)
}

val encode : t -> string
(** Serialize to the on-disk byte format. *)

val decode : string -> (t, string) result
(** Parse and validate; [Error] with a one-line reason on wrong magic,
    truncation, CRC mismatch, inconsistent contents, or a non-empty
    [rng] or [thermostat] section. *)

(** {1 Durable files} *)

val save : dir:string -> t -> string
(** Atomically write [dir/ckpt-<completed>.mdsim] (creating [dir] as
    needed) with {!Mdio.write_atomic} — tmp, fsync, rename, directory
    fsync — then GC generations beyond [t.keep] (always retaining at
    least one).  Returns the path. *)

val load : string -> (t, string) result

val generations : dir:string -> (int * string) list
(** Checkpoint generations in [dir], ascending by completed step. *)

val load_latest : dir:string -> (t * string, string) result
(** Newest valid generation and its path.  Rejected files (corrupt,
    truncated, wrong schema) get a one-line stderr diagnostic each, then
    the previous generation is tried. *)

(** {1 Single-writer locks} *)

(** Advisory single-writer guard over durable artifacts (checkpoint
    directories, the run manifest, a daemon's serve directory), built on
    [lockf]/[F_TLOCK] plus an in-process registry — POSIX record locks
    never conflict within one process, so the registry makes a second
    same-process acquirer fail exactly like a second process would.
    Two concurrent runs can therefore never interleave atomic rewrites
    or GC each other's checkpoint generations: the second acquirer gets
    a one-line [Error]. *)
module Lock : sig
  type t

  val acquire : path:string -> (t, string) result
  (** Create (if needed) and exclusively lock [path].  [Error] with a
      one-line reason when another process — or this one — holds it. *)

  val guard_dir : dir:string -> (t, string) result
  (** [acquire] on [dir ^ "/.lock"], creating [dir] as needed — the
      conventional guard for a checkpoint directory. *)

  val release : t -> unit
  (** Unlock and close.  The lock file itself is left in place (unlink
      would race a concurrent acquirer). *)
end

(** {1 Segmented runner} *)

module Runner : sig
  type device = Opteron | Cell | Cell1 | Ppe | Gpu | Mta | Mta_partial

  val device_name : device -> string
  val all_devices : device list
  val device_of_name : string -> (device, string) result

  type config = {
    cfg_device : device;
    cfg_atoms : int;
    cfg_steps : int;
    cfg_seed : int;
    cfg_density : float;
    cfg_temperature : float;
    cfg_force_path : Mdports.Force_path.t;
        (** Serialized into the checkpoint
            ({!Mdports.Force_path.encode}) and restored on resume, so
            the command line cannot change the engine mid-run.
            Pairlist state itself is never serialized:
            every segment starts with a fresh list (rebuild forced on
            its first force evaluation), and rebuild timing does not
            change forces, so resume stays bitwise. *)
    cfg_every : int;   (** 0 disables checkpointing: one straight port run *)
    cfg_keep : int;
    cfg_dir : string;
  }

  type suspension = {
    sus_completed : int;
    sus_total : int;
    sus_path : string option;  (** newest durable checkpoint, if any *)
    sus_reason : string;
  }

  type outcome =
    | Complete of Mdports.Run_result.t
    | Suspended of suspension

  val request_suspend : reason:string -> unit
  (** Ask the in-flight {!run}/{!resume} to suspend at the next segment
      boundary.  Async-signal-safe (one atomic store): SIGTERM/SIGINT
      handlers call this, the current segment completes, its checkpoint
      is made durable, and {!advance} returns [Suspended] with the
      final checkpoint path — the graceful shutdown twin of the SIGKILL
      story. *)

  val suspend_requested : unit -> string option
  val clear_suspend_request : unit -> unit

  val run : ?abort_after_segments:int -> ?deadline:float -> config -> outcome
  (** Run [cfg_steps] in [cfg_every]-step segments, checkpointing after
      each (plus a generation-0 file before the first, so resume is
      possible however early the process dies).  [deadline] arms a
      {!Sim_util.Deadline} budget: expiry suspends the run with the last
      durable checkpoint intact.  [abort_after_segments] is the
      kill-simulation test hook: return after that many segment
      checkpoints, exactly as SIGKILL would leave the directory.  On a
      persistent {!Mdcore.Verlet.Invariant_violation} the segment is
      re-executed from its input state (the newest valid generation's
      content) up to 2 times before suspending with the violation
      reason. *)

  val resume : ?abort_after_segments:int -> ?deadline:float -> string ->
    (outcome, string) result
  (** [resume path] continues from a checkpoint file, or from the newest
      valid generation when [path] is a directory.  Reinstates the fault
      plan (stream PRNG positions, counters, event logs) and
      guard-restore count captured at the checkpoint, then runs the
      remaining segments — producing final output byte-identical to the
      uninterrupted run's.  [Error] when no valid checkpoint exists. *)

  val result_of_state : t -> Mdports.Run_result.t
  (** Synthesize the final result of a completed state ([completed =
      total_steps]) — also used by {!resume} when the checkpoint already
      covers the whole run. *)

  (** {2 Single-segment stepping} — the serve engine's entry points:
      a scheduler interleaving many jobs drives each one segment at a
      time, with exactly the per-segment protocol {!run} uses, so a job
      stepped externally converges bitwise with an uninterrupted run. *)

  val prepare : config -> t
  (** Build the initial (step-0) state for [config]: the seeded system
      plus a capture of the current process-global fault/counter state.
      Install the job's fault plan {e before} calling this. *)

  type step_result =
    | Seg_complete of Mdports.Run_result.t
        (** the state already covered the whole run *)
    | Seg_checkpointed of t * string
        (** one more segment executed, absorbed, and durably saved *)

  val segment_step : config -> t -> step_result
  (** Execute exactly one [cfg_every]-step segment (guard retries and
      telemetry segment protocol included) and checkpoint it.
      Precondition: [cfg_every > 0].  The caller owns gen-0 saves,
      deadline budgets and exception handling ({!Mdfault.Unrecovered},
      {!Sim_util.Deadline.Expired}, persistent
      {!Mdcore.Verlet.Invariant_violation}). *)
end
