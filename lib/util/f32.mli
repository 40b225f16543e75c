(** IEEE-754 single-precision arithmetic emulated on top of OCaml's doubles.

    The Cell SPE and GPU ports in the paper run in single precision; the
    numerical differences against the double-precision reference are part of
    what the paper discusses ("the outstanding issue [is] support for
    double-precision").  Every value is kept as an OCaml [float] whose
    payload is exactly representable in binary32; every operation rounds its
    double result back to binary32 ([Int32.bits_of_float] performs the
    round-to-nearest-even conversion), so sequences of operations accumulate
    genuine single-precision rounding error. *)

val round : float -> float
(** Round a double to the nearest representable binary32 value. *)

val is_f32 : float -> bool
(** [is_f32 x] holds when [x] carries no more precision than binary32
    (NaNs and infinities included). *)

val add : float -> float -> float
val sub : float -> float -> float
val mul : float -> float -> float
val div : float -> float -> float
val sqrt : float -> float

val copysign : float -> float -> float
(** [copysign mag sgn] — the branch-elimination primitive from the paper's
    first Fig. 5 optimization rung. *)

val recip_est : float -> float
(** SPE-style reciprocal estimate followed by one Newton–Raphson step,
    rounded to f32 at each stage (accurate to ~1 ulp like [fi] on SPE). *)

val rsqrt_est : float -> float
(** Reciprocal square root via hardware-style estimate plus one
    Newton–Raphson refinement, each stage rounded to f32. *)

val max_finite : float
(** Largest finite binary32 value. *)

val epsilon : float
(** binary32 machine epsilon (2^-23). *)
