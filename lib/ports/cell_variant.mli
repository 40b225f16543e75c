(** The cumulative SIMD-optimization ladder of the paper's Fig. 5.

    Each rung keeps all previous optimizations and adds one more, exactly
    as the figure's bars are labelled. *)

type t =
  | Original            (** scalar port, branchy 27-cell reflection search *)
  | Copysign            (** "replace [if] with [copysign]" *)
  | Simd_reflection     (** "SIMD unit cell reflection": all three axes
                            searched simultaneously *)
  | Simd_direction      (** "SIMD direction vector" *)
  | Simd_length         (** "SIMD length calculation" *)
  | Simd_acceleration   (** "SIMD acceleration" (hit path only) *)

val all : t list
(** In ladder order. *)

val name : t -> string
(** The paper's bar label. *)

val includes : t -> t -> bool
(** [includes v rung] — does variant [v] contain optimization [rung]?
    (Cumulative ladder: true iff [rank rung <= rank v].) *)
