(** System construction: lattice placement and Maxwell–Boltzmann
    velocities.

    The paper's experiments sweep power-of-two atom counts (256 … 8192) at
    a fixed liquid-like density; we place atoms on a face-centred-cubic
    lattice (evenly thinned when the count is not [4 m³]), jitter and
    relax them, and draw velocities from the Maxwell distribution at the
    requested temperature, removing net momentum so the box does not
    drift. *)

val lattice_box : n:int -> density:float -> float
(** Box side length giving [n] atoms the target number density. *)

val build : ?seed:int -> ?density:float -> ?temperature:float ->
  ?params:Params.t -> n:int -> unit -> System.t
(** [build ~n ()] makes a ready-to-run system.

    Defaults: seed 42, density 0.8 (reduced LJ liquid), temperature 1.0,
    {!Params.default}.  Raises [Invalid_argument] if the implied box
    violates the minimum-image criterion (i.e. [n] too small for the
    density/cutoff combination) or any parameter is nonpositive. *)

val relax : System.t -> iterations:int -> max_step:float -> unit
(** Capped steepest-descent relaxation (used by [build] to defuse the
    sub-σ pairs a thinned lattice can contain).  Forces come from
    {!Pairlist.compute_full_stats} on a {!Pairlist.create_uninstrumented}
    list when {!Pairlist.admissible} holds, from {!Forces.compute_gather}
    otherwise; the two are bitwise equal, so the result does not depend
    on which one ran.  Clears the acceleration arrays afterwards. *)

val jitter_positions : System.t -> magnitude:float -> Sim_util.Rng.t -> unit
(** Displace every coordinate uniformly within ±magnitude (breaks lattice
    symmetry so forces are nonzero at step 0), re-wrapping afterwards. *)
