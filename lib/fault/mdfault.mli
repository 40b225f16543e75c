(** Deterministic fault injection and recovery for the device simulators.

    The paper's 2007-era devices are exactly the ones that fail in
    practice: Cell DMA engines see CRC errors and mailbox timeouts,
    consumer GPUs have no ECC on VRAM or the PCIe payload, and MTA
    full/empty-bit synchronization can livelock under hot-spot retries.
    This module injects those failure modes {e deterministically}: a
    fault {e plan} (seed + per-site rates) drives a splittable PRNG
    stream per injection site, so the same plan reproduces the identical
    fault sequence — every failure is replayable, across runs and across
    [--domains] pool sizes.

    Sites consult their stream on each vulnerable operation.  Detected
    faults (CRC, PCIe checksum, ECC scrub, mailbox timeout) are retried
    under a configurable retry/backoff {!policy}; the retries accrue
    {e virtual} time (charged by the calling machine model) and
    [fault/*] Mdprof counters.  Silent faults (texture-read bit flips —
    no ECC) corrupt the value and are only recorded.  When a site
    exhausts its retries it raises {!Unrecovered}, which the engine
    layer ({!Mdcore.Verlet} checkpointing, the harness degradation path)
    catches and recovers from.

    With every rate at 0.0 the plan is inert: no draws, no events, no
    registered counters — all existing outputs stay byte-identical.
    Like tracing and profiling, install the plan {e before} creating
    machines; streams made without a plan are permanently inert. *)

(** {1 Sites} *)

type site =
  | Cell_dma       (** SPE DMA transfer fails its CRC; retransmitted. *)
  | Cell_mailbox   (** PPE<->SPE mailbox roundtrip times out; resent. *)
  | Gpu_pcie       (** PCIe upload/readback corrupted or dropped;
                       detected by checksum and retransferred. *)
  | Gpu_texture    (** texture-read bit flip — consumer VRAM has no
                       ECC, so the corruption is silent. *)
  | Mta_retry      (** full/empty-bit hot spot: the sync op spins
                       through a retry storm; a watchdog detects
                       livelock. *)
  | Mem_bitflip    (** DRAM payload bit flip caught by ECC scrub; the
                       line is re-fetched. *)
  | Io_short_write (** [write(2)] persists only a prefix of the buffer
                       (torn record) and the shim reports a failure. *)
  | Io_eio         (** [write(2)] fails with [EIO] before any byte
                       lands — a dying disk or a remounted-ro volume. *)
  | Io_enospc      (** [write(2)] persists a prefix then fails with
                       [ENOSPC] — a filesystem filling up mid-record. *)
  | Io_fsync_fail  (** [fsync(2)] fails with [EIO]: the page cache
                       accepted the bytes but the platter never did. *)
  | Io_rename_fail (** [rename(2)] fails with [EIO]: the atomic commit
                       of a tmp-file rewrite never happens. *)

val device_sites : site list
(** The six device-model sites — what ["all:RATE"] covers. *)

val io_sites : site list
(** The storage sites consulted by the {!Mdio} write-path shim; opt-in
    per site, never part of ["all"]. *)

val site_name : site -> string
(** "cell-dma", "cell-mailbox", "gpu-pcie", "gpu-texture", "mta-retry",
    "mem-bitflip", "io-short-write", "io-eio", "io-enospc",
    "io-fsync-fail", "io-rename-fail". *)

val site_of_name : string -> site option

(** {1 Plans} *)

type policy = {
  max_retries : int;        (** retries per faulted operation (and
                                checkpointed step re-executions) before
                                declaring it unrecovered *)
  base_backoff_s : float;   (** virtual seconds before the first retry *)
  backoff_multiplier : float;  (** exponential backoff factor *)
  watchdog_limit : int;     (** consecutive faulted sync ops before the
                                MTA livelock watchdog fires *)
}

type spec = {
  seed : int;
  rates : (site * float) list;  (** per-operation fault probability;
                                    absent sites are 0.0 *)
  policy : policy;
  io_crash_at : int option;
      (** simulated process death at the k-th {!Mdio} op (0-based):
          the op applies its torn-write prefix (writes only), then the
          shim goes dead — every later op is silently dropped, exactly
          as kill -9 mid-syscall would leave the filesystem.  A process-
          lifetime property: {!capture_state} clears it, so a resumed
          run never re-crashes at the recorded op. *)
}

val parse_spec : string -> (spec, string) result
(** SPEC grammar (comma-separated items, validated — negative, NaN or
    out-of-range rates are rejected with a one-line error):

    {v item := SITE ":" RATE     per-site fault probability in [0,1]
            | "all" ":" RATE     every device site at once (storage
                                 sites are opt-in per site)
            | "seed" "=" INT     plan seed (default 42)
            | "retries" "=" INT  policy.max_retries (>= 0)
            | "backoff" "=" SECS policy.base_backoff_s (>= 0, finite)
            | "watchdog" "=" INT policy.watchdog_limit (> 0)
            | "io-crash-point" "=" INT  die at the k-th I/O op (>= 0) v}

    e.g. ["all:1e-3"], ["cell-dma:0.01,gpu-pcie:0.005,seed=7"],
    ["io-fsync-fail:0.05,io-enospc:0.02,seed=11"]. *)

val spec_to_string : spec -> string
(** Canonical one-line form of [spec], parseable by {!parse_spec} (e.g.
    ["seed=7,retries=4,backoff=1e-06,watchdog=64,cell-dma:0.001"]).
    Zero rates are omitted; [backoff_multiplier] is not representable in
    the grammar and must stay at its default for exact round-trips. *)

val install : spec -> unit
(** Make [spec] the active plan (replacing any previous plan and its
    event log).  Install before creating machines. *)

val uninstall : unit -> unit
val active : unit -> bool
val current_spec : unit -> spec option

val step_retries : unit -> int
(** [policy.max_retries] of the active plan, 0 when inactive — how many
    times the engine layer re-executes a checkpointed step. *)

val with_suspended : (unit -> 'a) -> 'a
(** Run [f] with injection suspended {e on this domain} (streams fire
    nothing and draw nothing).  The harness degradation path uses this
    to fall back to the fault-free reference behaviour without
    disturbing experiments running concurrently on other domains. *)

(** {1 Failures} *)

type failure = {
  f_site : site;
  f_stream : string;
  f_attempts : int;   (** attempts made, including the first *)
  f_detail : string;
}

exception Unrecovered of failure
(** Raised by a site once [policy.max_retries] retries are exhausted
    (or by the MTA livelock watchdog).  A [Printexc] printer is
    registered. *)

val failure_message : failure -> string

(** {1 Streams}

    One stream per (machine instance, site): named
    [<Mdobs scope>/<base>:<site>], get-or-create, with an independent
    PRNG derived from the plan seed and the full name — so the draw
    sequence at one site never perturbs another, and scoped names make
    the event log independent of which pool worker ran the machine. *)

type stream

val stream : site -> string -> stream
(** [stream site base] registers (or finds) the stream for [site] under
    the current {!Mdobs.current_scope}.  Inert when no plan is active or
    the site's rate is 0.0. *)

val inert : stream -> bool
(** True when the stream can never fire — the zero-cost fast-path guard
    for hot call sites. *)

val attempt : stream -> detail:(unit -> string) -> int * float
(** The detected-fault retry site.  Draws once per attempt: returns
    [(failures, backoff_s)] where [failures] is the number of faulted
    attempts before the operation succeeded (0 = clean; the caller
    charges [failures] re-executions plus [backoff_s] of virtual time)
    — or raises {!Unrecovered} when [max_retries] retries all fault.
    Records one event and bumps counters when [failures > 0]. *)

val storm : stream -> detail:(unit -> string) -> int * float
(** The MTA retry-storm site.  Returns [(extra_retries, backoff_s)]:
    0 extra ops when clean, otherwise a drawn storm of hot-spot
    retries.  Tracks consecutive faulted ops and raises {!Unrecovered}
    (livelock) once [policy.watchdog_limit] in a row have stormed. *)

val fire : stream -> bool
(** One raw draw (false when inert or suspended) — for silent-fault
    sites that corrupt data instead of retrying. *)

val draw_int : stream -> int -> int
(** Deterministic uniform draw in [\[0, n)] from the stream's PRNG (0
    when inert) — picks the corrupted lane/bit. *)

val record_silent : stream -> detail:(unit -> string) -> unit
(** Record a silent-corruption event after {!fire} returned true. *)

val note_recovered_step : unit -> unit
(** Called by the engine layer when a checkpointed step re-execution
    succeeded after a device failure. *)

val note_guard_restore : unit -> unit
(** Called by the invariant guard ({!Mdcore.Verlet}) when a violated
    physics invariant forced a restore from the newest valid snapshot.
    Tracked globally (guards also run without a fault plan) and kept out
    of {!summary} so existing fault-log bytes are unchanged. *)

val guard_restores : unit -> int
val set_guard_restores : int -> unit
(** Restore the global guard-restore count (checkpoint resume). *)

(** {1 Event log and summaries} *)

type event = {
  e_site : site;
  e_stream : string;
  e_index : int;       (** per-stream fault ordinal *)
  e_attempts : int;    (** faulted attempts (0 for silent faults) *)
  e_recovered : bool;  (** false for unrecovered / silent corruption *)
  e_detail : string;
}

type summary = {
  injected : int;
  retries : int;
  recoveries : int;
  unrecovered : int;
  backoff_seconds : float;
  recovered_steps : int;  (** checkpointed step re-executions that
                              succeeded (global; 0 under [?prefix]) *)
}

val summary : ?prefix:string -> unit -> summary
(** Totals over streams whose name starts with [prefix] (all streams
    when omitted). *)

val events : ?prefix:string -> unit -> event list
(** Deterministic order: streams by name, events by index — the
    replayable fault sequence. *)

val events_string : ?prefix:string -> unit -> string
(** Canonical one-line-per-event dump — the byte-identical artifact the
    determinism tests compare across runs and pool sizes. *)

val events_json : unit -> string
(** Fault log as JSON (schema ["mdsim-faults-v1"]): the spec that
    produced it, every event, and the summary. *)

val summary_line : summary -> string
(** e.g. "faults: 12 injected, 15 retries, 12 recovered, 0 unrecovered,
    3 step restores, 31.00 us virtual backoff". *)

(** {1 Checkpointable state}

    A fault plan is live mutable state — per-stream PRNG positions,
    counters and event logs.  [capture_state]/[restore_state] snapshot
    and reinstate all of it, so a resumed run replays the exact fault
    sequence an uninterrupted run would have seen. *)

type stream_state = {
  ss_name : string;
  ss_site : site;
  ss_rate : float;
  ss_rng : Sim_util.Rng.state option;  (** [None] = permanently inert *)
  ss_events : event list;              (** newest first, as stored *)
  ss_event_count : int;
  ss_injected : int;
  ss_retries : int;
  ss_recoveries : int;
  ss_unrecovered : int;
  ss_backoff_s : float;
  ss_consecutive : int;
}

type state = {
  cs_spec : spec;
  cs_streams : stream_state list;  (** sorted by name *)
  cs_recovered_steps : int;
}

val capture_state : unit -> state option
(** Snapshot the active plan and every registered stream ([None] when no
    plan is installed). *)

val restore_state : state -> unit
(** Install [cs_spec] as the active plan and repopulate its streams —
    PRNG positions, counters, event logs — exactly as captured. *)
