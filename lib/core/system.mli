(** The simulated collection of atoms, in structure-of-arrays layout.

    SoA is the layout every port in the paper works against: "the positions
    of atoms are usually stored in arrays" — the Opteron walks them
    linearly, the Cell DMAs contiguous spans of them into local stores,
    the GPU uploads them as a texture.  Storage is unboxed
    [(float, float64_elt, c_layout) Bigarray.Array1.t] buffers: contiguous
    malloc'd memory outside the OCaml heap, so hot loops stream flat
    doubles with no GC scanning and checkpoints can encode the raw
    IEEE-754 bytes directly.  Positions are kept inside the periodic box
    [\[0, box)³] at all times (enforced by {!wrap_atom}). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One SoA coordinate stream; index with [a.{i}]. *)

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Binary32 staging stream for the single-precision device ports.
    Stores round to nearest single (exactly {!Sim_util.F32.round});
    reads return the widened single. *)

val create_buf : int -> buf
(** Zero-filled [float64] buffer. *)

val create_f32buf : int -> f32buf
(** Zero-filled [float32] buffer. *)

type t = {
  n : int;
  box : float;                  (** cubic box side length *)
  params : Params.t;
  pos_x : buf;
  pos_y : buf;
  pos_z : buf;
  vel_x : buf;
  vel_y : buf;
  vel_z : buf;
  acc_x : buf;
  acc_y : buf;
  acc_z : buf;
  mutable stage32 : (f32buf * f32buf * f32buf) option;
      (** Reusable binary32 position staging, managed by
          {!stage_positions_f32}; [None] until first staged. *)
}

val create : n:int -> box:float -> params:Params.t -> t
(** Zero-initialized buffers.  Requires [n > 0] and [box >= 2 * cutoff]
    (the minimum-image criterion — with a smaller box an atom would
    interact with two images of the same neighbour). *)

val copy : t -> t

val restore : dst:t -> src:t -> unit
(** Blit all nine buffers of [src] over [dst] (positions, velocities,
    accelerations) — checkpoint/rollback for mid-step device-failure
    recovery.  Requires equal [n]. *)

val position : t -> int -> Vecmath.Vec3.t
val set_position : t -> int -> Vecmath.Vec3.t -> unit
(** Wraps into the box. *)

val set_velocity : t -> int -> Vecmath.Vec3.t -> unit

val wrap_coord : float -> float -> float
(** [wrap_coord box x] folds [x] into [\[0, box)].  The result is
    strictly below [box] even when a tiny negative remainder would make
    [rem + box] round to [box] (it clamps to [0.0]). *)

val wrap_atom : t -> int -> unit
(** Re-impose periodic boundary conditions on atom [i]'s stored position. *)

val clear_accelerations : t -> unit

val stage_positions_f32 : t -> f32buf * f32buf * f32buf
(** Refresh and return the reusable binary32 staging buffers [(x, y, z)]
    holding the current positions rounded to single precision.  The
    buffers are allocated once per system and overwritten on every call
    — the Cell and GPU ports stage through these instead of allocating
    a rounded copy per force evaluation. *)

val equal_positions : ?eps:float -> t -> t -> bool
val max_position_delta : t -> t -> float
(** Largest absolute componentwise position difference (for port
    tolerance checks); systems must have equal [n]. *)

val max_acceleration_delta : t -> t -> float
val density : t -> float
(** n / box³. *)

val finite : t -> bool
(** Whether every stored coordinate, velocity and acceleration is finite
    (no NaN/Inf) — the cheapest corruption screen the invariant guard
    runs after each step. *)
