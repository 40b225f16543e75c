(** The Cell Broadband Engine port of the MD kernel.

    Structure mirrors the paper's: the PPE runs the application (staging,
    integration, energy sums) and offloads the acceleration computation —
    and only it — to SPE threads, either respawned every time step or
    launched once and signalled by mailbox (the Fig. 6 contrast).  All SPE
    math is single precision.

    The port separates the two halves of the simulation:

    - {!profile_run} executes the physics once: a binary32 gather kernel
      (the same arithmetic every ladder variant performs — the SIMD
      rewrites change the instruction schedule, not the values), recording
      per-row interaction counts and the energy trajectory;
    - {!time_with} replays machine accounting for any [config] against a
      profile, in the profile's precision: SPE thread spawns/mailboxes,
      local-store allocation (capacity-checked), DMA traffic, and
      per-variant pipeline cycles from {!Kernels} — in seconds on the
      {!Cellbe.Machine} ledger.

    [run] composes the two.  Fig. 5's six variants and Fig. 6's four
    launch configurations each reuse one 2048-atom profile. *)

type launch = Respawn | Persistent

type precision =
  | Single  (** the paper's port: binary32 throughout *)
  | Double  (** the Section 6 "what if": the SPE's unpipelined 2-wide DP
                unit, with doubled DMA traffic *)

type config = {
  variant : Cell_variant.t;
      (** ignored for a [Double] profile: the DP port corresponds to the
          fully-optimized structure (there is no DP estimate ladder) *)
  n_spes : int;
  launch : launch;
}
(** Timed on {!Cellbe.Config.default}, the paper's blade. *)

val default_config : config
(** All optimizations ([Simd_acceleration]), 8 SPEs, persistent launch. *)

type profile

val profile_run : ?steps:int -> ?precision:precision ->
  ?force_path:Force_path.t -> Mdcore.System.t -> profile
(** Run the physics on a copy of the system (default 10 steps, single
    precision).

    [force_path] defaults to the pairlist when the box admits it: the
    gather runs over the stored neighbour rows (bit-identical to the N²
    gather in either precision) and the profile carries per-invocation
    tile data — row entry counts and rebuild scans — that {!time_with}
    replays as per-SPE neighbour-row DMA tiles and SPE-side rebuild
    scans.  Brute N² otherwise (and for boxes below the min-image
    bound). *)

val profile_precision : profile -> precision

val profile_records : profile -> Mdcore.Verlet.step_record list
val profile_hits : profile -> int
(** Total in-cutoff interactions across all force evaluations. *)

val time_with : ?j_chunk:int -> profile -> config -> Run_result.t
(** [j_chunk] (default 8192 atoms) is the local-store staging tile; when
    the system exceeds it the SPEs stream the j-atoms in multiple DMA
    rounds through one reused buffer.  Exposed so tests can force the
    tiled path on small systems.  For a pairlist profile the SPEs
    fetch their neighbour-row index tiles and either gather the
    coordinate streams per entry (sparse tiles) or stream the whole
    position arrays (dense tiles, the usual liquid-density case); the
    per-pair loop is charged per list entry.  On rebuild steps each SPE
    scans its share of the candidate pairs against the whole staged
    arrays and writes its rebuilt tile back — the build parallelizes
    across the SPEs rather than serializing on the in-order PPE. *)

val run : ?steps:int -> ?config:config -> ?force_path:Force_path.t ->
  Mdcore.System.t -> Run_result.t
(** {!time_with} over a single-precision {!profile_run}. *)

val run_ppe_only : ?steps:int -> Mdcore.System.t -> Run_result.t
(** The Table 1 "Cell, PPE only" row: the same single-precision kernel
    executed entirely on the in-order PPE, no SPE offload. *)

val time_ppe_only : profile -> Run_result.t
(** PPE-only timing against an existing profile (avoids re-running the
    physics when the SPE configurations already profiled it). *)

val accel_seconds : Run_result.t -> float
(** Time attributed to the acceleration computation (SPE compute + DMA
    + PPE-only compute), the quantity plotted in Fig. 5. *)

val launch_overhead_seconds : Run_result.t -> float
(** Time attributed to SPE thread creation plus mailbox signalling, the
    quantity Fig. 6 plots against the total. *)

val apply_f32_engine : Mdcore.System.t -> Mdcore.Engine.t
(** The bare binary32 force engine (no timing) — used by tests to compare
    single-precision results against the double-precision reference. *)
