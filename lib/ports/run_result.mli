(** Common shape of a port's simulation outcome: the physics trajectory
    plus the virtual runtime and its decomposition.  Every experiment in
    the harness consumes this type, so ports stay comparable. *)

type t = {
  device : string;
  n_atoms : int;
  steps : int;
  seconds : float;           (** virtual wall-clock for the whole run *)
  records : Mdcore.Verlet.step_record list;
      (** per-step energies (step 0 = initial state) *)
  breakdown : (string * float) list;
      (** seconds by ledger category; sums to [seconds] for devices with a
          complete ledger *)
  pairs_evaluated : int;     (** candidate pairs examined, total *)
  interactions : int;        (** pairs inside the cutoff, total *)
  final_system : Mdcore.System.t option;
      (** the port's working copy after the last step — the state a
          checkpointed runner persists and carries into the next
          segment.  [None] only for synthesized results. *)
}

val final_total_energy : t -> float
(** Total energy at the last step; raises on an empty record list. *)

val energy_drift : t -> float
(** |E_final − E_initial| / |E_initial| over the run — the integration
    quality metric used by conservation tests. *)

val breakdown_get : t -> string -> float
(** 0.0 when the category is absent. *)

val render_summary : t -> string
(** The canonical human-readable run report (summary line, non-zero
    breakdown categories, energy line, virtual runtime) — the exact
    bytes `mdsim run` prints and the serve daemon writes per job, so
    the two are [cmp]-comparable. *)

val metrics_json : t -> string
(** The canonical machine-readable metrics document `--metrics` writes
    — deterministic ([%.17g] floats, fixed field order) and shared with
    the serve daemon's per-job [metrics.json]. *)
