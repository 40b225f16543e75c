(** Velocity-Verlet integration — the paper's 5-step kernel (Fig. 4):

    {v 1. advance velocities
       2. calculate forces on each of the N atoms
       3. move atoms based on their position, velocities & forces
       4. update positions
       5. calculate new kinetic and total energies v}

    arranged in the standard velocity-Verlet order: the half-kick with the
    previous accelerations, the drift, the force evaluation at the new
    positions, the second half-kick, and the energy bookkeeping.  The force
    evaluation is pluggable (an {!Engine.t}) — offloading it is the entire
    subject of the paper. *)

type step_record = {
  step : int;
  sim_time : float;         (** step · Δt *)
  pe : float;
  ke : float;
  total_energy : float;
  temperature : float;
}

val prepare : System.t -> engine:Engine.t -> float
(** Evaluate forces for the initial configuration (velocity Verlet needs
    a(t) before the first step); returns the initial PE. *)

val step : System.t -> engine:Engine.t -> float
(** Advance one Δt.  Assumes accelerations correspond to current positions
    (guaranteed after {!prepare} or a previous [step]).  Returns the new
    PE. *)

(** {1 Invariant guard}

    Retry layers only catch {e detected} faults; silent corruption (a
    GPU texture-lane or DRAM bit flip) sails through.  The guard
    validates cheap physics invariants after every step — finite state,
    bounded per-step energy jump, bounded net-momentum drift from the
    run's initial momentum — and on violation restores the newest valid
    snapshot (the pre-step state) and re-executes, escalating to
    {!Invariant_violation} when the violation persists. *)

type guard = {
  max_energy_jump : float;
  (** max |E(t) − E(t−1)| / max(1, |E(t−1)|) per step *)
  max_momentum_drift : float;
  (** max per-atom |P(t) − P(0)| component drift (scaled by n) *)
  max_restores : int;
  (** snapshot restores per step before escalating *)
}

val default_guard : guard
(** 5% relative energy jump, 1e-6 per-atom momentum drift, 4 restores. *)

exception Invariant_violation of string
(** A guard bound stayed violated after [max_restores] re-executions
    (or the initial state itself was invalid).  A [Printexc] printer is
    registered. *)

val install_guard : guard -> unit
(** Make [guard] the process-wide default for {!run} (the [?guard]
    argument overrides it per call).  Like fault plans, install before
    starting runs. *)

val clear_guard : unit -> unit

(** {1 Observation hooks}

    Registration points for the telemetry layer (Mdtel), which lives
    above [mdcore] and cannot be called directly.  Both cost a single
    atomic load per step when nothing is registered. *)

val set_step_listener : (System.t -> step_record -> unit) option -> unit
(** Called once per produced step record (after any fault retries and
    guard restores have settled — never for a rolled-back attempt),
    with the system in the state the record describes.  Step indices
    are local to the [run] call; segmented callers rebase them. *)

val set_alert_listener : (step:int -> reason:string -> unit) option -> unit
(** Called on every invariant-guard violation, including ones healed by
    a snapshot restore.  [reason] is the {!Invariant_violation}
    message; deterministic for a fixed workload. *)

val run : System.t -> engine:Engine.t -> steps:int ->
  ?max_step_retries:int -> ?guard:guard ->
  ?record:(step_record -> unit) -> unit -> step_record list
(** [run s ~engine ~steps ()] integrates [steps] steps and returns one
    record per step (including a step-0 record for the initial state).
    [record] is additionally called with each record as it is produced.

    [max_step_retries] (default 0) enables checkpointed recovery: the
    SoA state is snapshotted before every force evaluation, and when the
    engine raises {!Mdfault.Unrecovered} mid-step the state is rolled
    back and the step re-executed, up to that many times per step —
    ports pass [Mdfault.step_retries ()].  The re-execution draws fresh
    fault-stream values, so a transient device failure converges to the
    fault-free trajectory.  With 0 retries the fault-free path is
    unchanged (and allocation-free).

    [guard] (default: the installed guard, if any) additionally runs the
    invariant checks above after every step.  Each step also calls
    [Sim_util.Deadline.check], so a deadline-supervised caller can bound
    the wall-clock cost of a wedged run at one-step granularity. *)
