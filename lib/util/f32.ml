let round x = Int32.float_of_bits (Int32.bits_of_float x)

let is_f32 x = Float.is_nan x || round x = x

let add a b = round (a +. b)
let sub a b = round (a -. b)
let mul a b = round (a *. b)
let div a b = round (a /. b)
let sqrt x = round (Stdlib.sqrt x)
let copysign mag sgn = Float.copy_sign mag sgn

(* One Newton-Raphson step on top of a truncated estimate mimics the SPE's
   floating reciprocal-estimate + interpolate sequence.  We seed the
   iteration with the exact reciprocal rounded to bfloat-like low precision
   (12 mantissa bits) to emulate the limited-accuracy lookup table. *)
let low_precision x =
  let bits = Int32.bits_of_float x in
  (* Clear the bottom 11 mantissa bits of the binary32 encoding. *)
  Int32.float_of_bits (Int32.logand bits 0xFFFFF800l)

let recip_est x =
  let e = low_precision (1.0 /. x) in
  (* e' = e * (2 - x*e) *)
  mul e (sub 2.0 (mul x e))

let rsqrt_est x =
  let e = low_precision (1.0 /. Stdlib.sqrt x) in
  (* e' = e * (1.5 - 0.5*x*e*e) *)
  mul e (sub 1.5 (mul (mul 0.5 x) (mul e e)))

let max_finite = round 3.4028234663852886e38
let epsilon = round 1.1920928955078125e-07
