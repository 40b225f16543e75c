(** A GPU texel: four binary32 lanes.

    The GPU port's textures and render targets hold one per texel (see
    {!Gpustream.Machine}): an atom's x, y, z in lanes 0..2 and, in the
    force pass's output, its potential-energy contribution smuggled into
    lane 3 ("read back ... for free").  Every lane is rounded to binary32
    (see {!Sim_util.F32}).

    Values are immutable.  Lane indices are 0..3. *)

type t = private { a : float; b : float; c : float; d : float }
(** Lanes 0..3.  The record is private so inner loops read lanes as
    plain field loads; every value is still built through {!make} or
    {!with_lane}, which round each lane to binary32. *)

val make : float -> float -> float -> float -> t
(** Each component is rounded to binary32. *)

val zero : t

val lane : t -> int -> float
(** Extract a lane; raises [Invalid_argument] outside 0..3. *)

val with_lane : t -> int -> float -> t
(** Replace one lane (rounded to binary32); raises [Invalid_argument]
    outside 0..3. *)

val w : t -> float
(** Lane 3. *)
