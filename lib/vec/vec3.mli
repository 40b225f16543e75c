(** Double-precision 3-vectors.

    Used by the MD reference implementation and the MTA-2 port (both run in
    double precision, per the paper).  Immutable records; the hot inner
    loops in the ports work on unboxed SoA float arrays instead, so this
    type is for setup, observables and tests. *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val cross : t -> t -> t
val norm2 : t -> float
(** Squared Euclidean norm. *)

val norm : t -> float
val normalize : t -> t
(** Raises [Invalid_argument] on the zero vector. *)

val lerp : t -> t -> float -> t
(** [lerp a b u] = a + u*(b-a). *)

val of_array : float array -> t
(** From a 3-element array; raises [Invalid_argument] otherwise. *)

val to_array : t -> float array
val equal : ?eps:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance (default exact). *)

val pp : Format.formatter -> t -> unit
