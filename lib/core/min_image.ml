(* A tiny negative remainder (e.g. -1e-17 with box = 1.0) makes
   [r +. box] round to [box] exactly, leaking a result outside the
   documented [0, box) range; clamp it to the 0.0 it is one ulp from. *)
let wrap ~box x =
  let r = Float.rem x box in
  let r = if r < 0.0 then r +. box else r in
  if r >= box then 0.0 else r

let delta ~box dx = dx -. (box *. Float.round (dx /. box))

let delta_search ~box dx =
  (* Ties ([|dx| = box/2]: both images equidistant) must go to the later
     candidate so the searched result matches [delta], whose
     half-away-from-zero rounding maps +box/2 to -box/2 and vice versa —
     hence [<=], not [<]. *)
  let best = ref dx in
  let consider cand = if abs_float cand <= abs_float !best then best := cand in
  consider (dx -. box);
  consider (dx +. box);
  !best

let delta_search_branchless ~box dx =
  (* |dx| >= box/2 means the image one box away (in the direction
     opposite dx's sign) is at least as close; copysign selects that
     direction without a branch.  The bound is inclusive so that the
     boundary |dx| = box/2 resolves to the sign-flipped image, exactly as
     [delta]'s half-away-from-zero rounding does.  The multiply by the
     comparison result mirrors the SPE's mask-and-select idiom. *)
  let needs_shift = if abs_float dx >= 0.5 *. box then 1.0 else 0.0 in
  dx -. (needs_shift *. Float.copy_sign box dx)

let dist2 ~box (a : Vecmath.Vec3.t) (b : Vecmath.Vec3.t) =
  let dx = delta ~box (a.x -. b.x)
  and dy = delta ~box (a.y -. b.y)
  and dz = delta ~box (a.z -. b.z) in
  (dx *. dx) +. (dy *. dy) +. (dz *. dz)
