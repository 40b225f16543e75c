(** Quadword single-precision SIMD emulation.

    Models the 128-bit vector registers of the Cell SPE (and the 4-component
    pixel values of the GPU): four binary32 lanes, with every arithmetic
    result rounded to binary32 per lane (see {!Sim_util.F32}).  The paper's
    ports keep x, y, z in the first three lanes and either waste the fourth
    or — on the GPU — smuggle the per-atom potential-energy contribution in
    it ("read back ... for free"); this module supports both uses.

    Values are immutable.  Lane indices are 0..3. *)

type t = private { a : float; b : float; c : float; d : float }
(** Lanes 0..3.  The record is private so inner loops read lanes as
    plain field loads; every value is still built through {!make} (or
    an operation below), which rounds each lane to binary32. *)

val make : float -> float -> float -> float -> t
(** Each component is rounded to binary32. *)

val splat : float -> t
val zero : t

val of_vec3 : Vec3.t -> w:float -> t
(** Pack a double-precision 3-vector into lanes 0..2 (rounding each to
    binary32) with an explicit fourth lane. *)

val to_vec3 : t -> Vec3.t
(** Lanes 0..2; the w lane is dropped. *)

val lane : t -> int -> float
(** Extract a lane; raises [Invalid_argument] outside 0..3. *)

val with_lane : t -> int -> float -> t
val x : t -> float
val y : t -> float
val z : t -> float
val w : t -> float

(** {1 Arithmetic — each lane rounded to binary32} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val sqrt : t -> t
val madd : t -> t -> t -> t
(** [madd a b c] lanes = round(round(a*b) + c). *)

val nmsub : t -> t -> t -> t
(** [nmsub a b c] lanes = round(c - round(a*b)) — the SPE [fnms] form used
    in Newton–Raphson refinement. *)

val recip_est : t -> t
val rsqrt_est : t -> t
val min : t -> t -> t
val max : t -> t -> t
val abs : t -> t
val copysign : t -> t -> t
(** Per-lane [copysign magnitude sign] — the branch-free kernel trick. *)

val floor : t -> t
val round_nearest : t -> t
(** Round-half-away-from-zero per lane (matches C [roundf]). *)

(** {1 Comparison and selection} *)

type mask
(** Per-lane boolean mask, as produced by vector compares. *)

val cmp_gt : t -> t -> mask
val cmp_lt : t -> t -> mask
val cmp_ge : t -> t -> mask
val cmp_le : t -> t -> mask
val mask_all : mask -> bool
val mask_any : mask -> bool
val mask_lane : mask -> int -> bool
val select : mask -> if_true:t -> if_false:t -> t
(** Per-lane select, the SPE [selb] instruction. *)

(** {1 Horizontal / cross-lane operations} *)

val shuffle : t -> int * int * int * int -> t
(** [shuffle v (a,b,c,d)] builds a vector from lanes [a..d] of [v]. *)

val hsum3 : t -> float
(** Sum of lanes 0..2 with f32 rounding at each add (left-to-right), as the
    SPE shuffle+add reduction sequence produces. *)

val hsum4 : t -> float
val dot3 : t -> t -> float
(** f32 dot product over lanes 0..2 (mul then left-to-right adds). *)

val equal : ?eps:float -> t -> t -> bool
val to_array : t -> float array
val of_array : float array -> t
val pp : Format.formatter -> t -> unit
