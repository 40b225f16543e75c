(** Temperature control: exact velocity rescaling.

    The paper's kernel is pure NVE (no thermostat); rescaling is what an
    example uses to heat or quench a system between NVE segments. *)

val rescale : System.t -> target:float -> unit
(** Velocity rescaling: scale all velocities so the instantaneous
    temperature equals [target] exactly.  No-op on a zero-temperature
    system.  [target] must be nonnegative. *)
