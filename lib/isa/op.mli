(** Abstract machine operations for static timing estimation.

    The per-architecture cycle estimates in this reproduction are not
    hand-waved constants: each port describes its inner loop as a basic
    block of these operations with explicit data dependences, and a
    per-architecture scheduler ({!Spe_pipe}, {!Opteron_pipe}, {!Gpu_pipe})
    turns the block into a cycles-per-iteration figure.  Fig. 5's SIMD
    ladder falls out of the differences between the blocks (branchy scalar
    code vs [selb]/[copysign] vs quadword SIMD), not from fitted numbers. *)

type t =
  | Fadd          (** single-precision FP add or subtract (scalar or quadword) *)
  | Fmul
  | Fmadd         (** fused multiply-add *)
  | Fadd_dp       (** double-precision arithmetic: fully pipelined on the
                      Opteron and MTA, but a pipeline-stalling microcoded
                      sequence on the 2006 SPE — and simply absent from
                      2006 GPUs (the paper's "outstanding issue") *)
  | Fmul_dp
  | Fmadd_dp
  | Fdiv_dp
  | Fsqrt_dp
  | Fdiv          (** full-precision divide (microcoded on most targets) *)
  | Fsqrt         (** full-precision square root *)
  | Frecip_est    (** reciprocal estimate (SPE [fi], GPU [rcp]) *)
  | Frsqrt_est    (** reciprocal-sqrt estimate (GPU [rsq]) *)
  | Fcmp          (** FP compare producing a mask *)
  | Fsel          (** bitwise select ([selb]) / conditional move *)
  | Fcopysign     (** sign transfer — the paper's branch-elimination trick *)
  | Fconvert      (** int<->float conversion, rounding *)
  | Ialu          (** integer add/sub/logic *)
  | Load          (** load from local store / L1 *)
  | Store
  | Shuffle       (** permute / splat / lane rearrangement *)
  | Branch_taken
  | Branch_not_taken
  | Branch_miss   (** branch that stalls the pipeline (SPE has no
                      prediction: any unhinted taken branch pays this) *)

val to_string : t -> string

val is_memory : t -> bool
val is_double_precision : t -> bool

val flops : t -> int
(** Floating-point operations contributed to an FLOP count: fused
    multiply-adds count 2, other FP arithmetic (including divides,
    square roots, and estimates) counts 1, everything else 0. *)

val all : t list
