(** Shared binary32 arithmetic of the MD pair kernel.

    The Cell and GPU ports both run the force evaluation in single
    precision; this module centralizes the staged constants, the
    per-pair math and the gather loop itself, so the two ports (and
    their tests) agree bit-for-bit on the arithmetic they model. *)

type params = {
  box : float;
  half_box : float;
  rc2 : float;
  sigma2 : float;
  eps24 : float;
  eps4 : float;
  inv_mass : float;
}
(** All fields are binary32 values (pre-rounded). *)

val of_system : Mdcore.System.t -> params

val min_image : params -> float -> float
(** Minimum-image displacement for a binary32 coordinate difference of
    wrapped positions (selects among the three unit-cell images, as the
    kernel's reflection search does). *)

val r2 : params -> dx:float -> dy:float -> dz:float -> float
(** Squared distance with binary32 rounding at every step. *)

val pair_terms : params -> float -> (float * float) option
(** [pair_terms p r2] is [Some (coeff, pe)] when the pair interacts
    ([0 < r2 < rc2]): [coeff] is the acceleration coefficient
    (force/r x 1/m) and [pe] the pair's PE contribution, both binary32.
    [None] outside the cutoff (or at zero distance — the GPU shader's
    self-exclusion test).  Together with {!min_image} and {!r2} this is
    the reference {!gather} is tested against. *)

(** {1 The gather loop} *)

type acc = {
  mutable ax : float;
  mutable ay : float;
  mutable az : float;
  mutable pe : float;
}
(** One row's binary32 sums: acceleration components and the row's
    (double-counted) PE contribution. *)

val acc : unit -> acc
(** A zeroed accumulator; {!gather} resets it, so one can serve every
    row of an evaluation. *)

type source =
  | Staged of Mdcore.System.f32buf * Mdcore.System.f32buf * Mdcore.System.f32buf
      (** Cell: the staged binary32 position streams. *)
  | Texture of Gpustream.Machine.sampler * int array
      (** GPU: position texels on input 0.  With {!Rows} partners the
          int array holds each row's first slot in the packed index
          texture: the fragment fetches its row descriptor (input 1)
          once, then per entry one index texel (input 2) before the
          partner's position texel — the order that carries the
          texture-fetch counters and texture fault draws. *)

type partners =
  | All of int  (** every j in [0, n): the N² sweep *)
  | Rows of int array array  (** full neighbour-list rows *)

val gather : params -> acc -> source -> partners -> int -> int
(** [gather p acc src partners i] runs atom [i]'s row and returns its
    interaction count, leaving the row's sums in [acc].  Per partner it
    is exactly [min_image] on each rounded coordinate difference, {!r2},
    then {!pair_terms}, accumulated in partner order with binary32 adds;
    a C kernel computes the row in native binary32, which gives the
    same bits.  While the texture fault stream is live a [Texture] row
    instead fetches texel by texel through {!Gpustream.Machine.sample},
    so fault draws replay; both count the same texture fetches.  [All]
    includes [j = i], which the [r2 > 0] test excludes, as the GPU
    shader's does.  Raises [Invalid_argument] when [i], a partner or the
    [All] length lies outside the positions.  Allocates nothing per
    partner. *)
