(** Deterministic pseudo-random number generation.

    All stochastic components of the simulators (initial velocities,
    placement jitter, sampled address traces) draw from this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    splittable, 64-bit state generator with good statistical quality and an
    exactly specified output sequence, which makes cross-run determinism a
    testable property. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds produce equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream. *)

type state = { bits : int64; cached : float option }
(** Complete serializable snapshot of a generator: the SplitMix64 counter
    and the Box–Muller cached deviate.  Restoring both is required for
    bitwise replay — dropping the cache would shift every subsequent
    {!gaussian} draw by one. *)

val state : t -> state
(** [state t] captures [t]'s position in its stream. *)

val of_state : state -> t
(** [of_state s] is a generator that resumes exactly at [s]. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t].  Used to give each subsystem its own stream so that adding draws in
    one subsystem does not perturb another. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [\[0, n)].  [n] must be positive.
    Implemented by rejection over the top 62 raw bits: draws at or above
    {!rejection_limit} of the 2{^62} range are redrawn, so no residue is
    overrepresented. *)

val rejection_limit : range:int64 -> int64 -> int64
(** [rejection_limit ~range n] is the largest exact multiple of [n] not
    exceeding [range] — the exclusive acceptance bound used by
    {!int_below}.  Exposed so tests can check the bound on small ranges
    where the bias of an off-by-one is observable. *)

val float : t -> float
(** Uniform in [\[0, 1)], with 53 random bits. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller; draws are cached pairwise). *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by [t]. *)
