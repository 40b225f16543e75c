(** Physical observables: the quantities step 5 of the paper's kernel
    computes ("calculate new kinetic and total energies") and the
    conservation laws the test suite checks. *)

val kinetic_energy : System.t -> float
(** KE = ½ m Σ v². *)

val temperature : System.t -> float
(** T = 2·KE / (3·(N−1)) in reduced units (N−1: three momentum constraints
    remove one atom's worth of degrees of freedom). *)

val total_momentum : System.t -> Vecmath.Vec3.t
(** Σ m·v — conserved (≈0 after {!Init.build}). *)

val radial_distribution : System.t -> bins:int -> rmax:float -> float array
(** g(r): the pair-correlation histogram over [\[0, rmax)], normalized so
    an ideal gas gives 1 in every bin — the standard structural probe
    that distinguishes the solid's sharp shells from the liquid's broad
    first peak.  Requires [0 < rmax <= box/2] (minimum image) and
    [bins > 0].  O(N^2). *)

val bin_centers : bins:int -> rmax:float -> float array
(** The r value at each bin's midpoint, for plotting alongside
    {!radial_distribution}. *)
