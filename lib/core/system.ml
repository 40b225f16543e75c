module Vec3 = Vecmath.Vec3

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let create_buf n : buf =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.0;
  a

let create_f32buf n : f32buf =
  let a = Bigarray.Array1.create Bigarray.Float32 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.0;
  a

type t = {
  n : int;
  box : float;
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
  (* Lazily-allocated binary32 staging for the single-precision ports;
     refreshed (never reallocated) by [stage_positions_f32]. *)
  mutable stage32 : (f32buf * f32buf * f32buf) option;
}

let create ~n ~box ~params =
  Params.validate params;
  if n <= 0 then invalid_arg "System.create: n must be positive";
  if box < 2.0 *. params.Params.cutoff then
    invalid_arg
      (Printf.sprintf
         "System.create: box %g violates the minimum-image criterion (needs \
          >= 2 * cutoff = %g)"
         box
         (2.0 *. params.Params.cutoff));
  let z () = create_buf n in
  { n; box; params;
    pos_x = z (); pos_y = z (); pos_z = z ();
    vel_x = z (); vel_y = z (); vel_z = z ();
    acc_x = z (); acc_y = z (); acc_z = z ();
    stage32 = None }

let copy_buf (a : buf) : buf =
  let b = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout
      (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a b;
  b

let copy t =
  { t with
    pos_x = copy_buf t.pos_x; pos_y = copy_buf t.pos_y;
    pos_z = copy_buf t.pos_z;
    vel_x = copy_buf t.vel_x; vel_y = copy_buf t.vel_y;
    vel_z = copy_buf t.vel_z;
    acc_x = copy_buf t.acc_x; acc_y = copy_buf t.acc_y;
    acc_z = copy_buf t.acc_z;
    (* Staging is a per-system scratch cache: sharing it would let the
       copy and the original clobber each other's staged coordinates. *)
    stage32 = None }

let restore ~dst ~src =
  if dst.n <> src.n then invalid_arg "System.restore: size mismatch";
  let b s d = Bigarray.Array1.blit s d in
  b src.pos_x dst.pos_x; b src.pos_y dst.pos_y; b src.pos_z dst.pos_z;
  b src.vel_x dst.vel_x; b src.vel_y dst.vel_y; b src.vel_z dst.vel_z;
  b src.acc_x dst.acc_x; b src.acc_y dst.acc_y; b src.acc_z dst.acc_z

let position t i = Vec3.make t.pos_x.{i} t.pos_y.{i} t.pos_z.{i}
(* Fold a coordinate into [0, box).  A single fmod plus correction is
   enough because the integrator moves atoms far less than a box length
   per step; arbitrary inputs are handled for robustness.  A tiny
   negative remainder makes [r +. box] round to [box] exactly, which
   would leak a coordinate outside the documented range — clamp it to
   the 0.0 it is one ulp away from.  Inline, so [wrap_atom] (every atom,
   every step) boxes no float. *)
let[@inline] wrap_coord box x =
  let r = Float.rem x box in
  let r = if r < 0.0 then r +. box else r in
  if r >= box then 0.0 else r

let wrap_atom t i =
  t.pos_x.{i} <- wrap_coord t.box t.pos_x.{i};
  t.pos_y.{i} <- wrap_coord t.box t.pos_y.{i};
  t.pos_z.{i} <- wrap_coord t.box t.pos_z.{i}

let set_position t i (v : Vec3.t) =
  t.pos_x.{i} <- v.x;
  t.pos_y.{i} <- v.y;
  t.pos_z.{i} <- v.z;
  wrap_atom t i

let set_velocity t i (v : Vec3.t) =
  t.vel_x.{i} <- v.x;
  t.vel_y.{i} <- v.y;
  t.vel_z.{i} <- v.z

let clear_accelerations t =
  Bigarray.Array1.fill t.acc_x 0.0;
  Bigarray.Array1.fill t.acc_y 0.0;
  Bigarray.Array1.fill t.acc_z 0.0

(* Refresh (allocating on first use) the reusable binary32 position
   staging.  Storing a double into a float32 Bigarray rounds to nearest
   single exactly as [F32.round] does, so reads from these buffers are
   bit-identical to the former per-access [Array.map F32.round]. *)
let stage_positions_f32 t =
  let ((px, py, pz) as bufs) =
    match t.stage32 with
    | Some b -> b
    | None ->
      let b = (create_f32buf t.n, create_f32buf t.n, create_f32buf t.n) in
      t.stage32 <- Some b;
      b
  in
  for i = 0 to t.n - 1 do
    px.{i} <- t.pos_x.{i};
    py.{i} <- t.pos_y.{i};
    pz.{i} <- t.pos_z.{i}
  done;
  bufs

let check_compatible a b =
  if a.n <> b.n then invalid_arg "System: size mismatch"

let max_delta3 n (ax : buf) (ay : buf) (az : buf) (bx : buf) (by : buf)
    (bz : buf) =
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    worst := Float.max !worst (abs_float (ax.{i} -. bx.{i}));
    worst := Float.max !worst (abs_float (ay.{i} -. by.{i}));
    worst := Float.max !worst (abs_float (az.{i} -. bz.{i}))
  done;
  !worst

let max_position_delta a b =
  check_compatible a b;
  max_delta3 a.n a.pos_x a.pos_y a.pos_z b.pos_x b.pos_y b.pos_z

let max_acceleration_delta a b =
  check_compatible a b;
  max_delta3 a.n a.acc_x a.acc_y a.acc_z b.acc_x b.acc_y b.acc_z

let equal_positions ?(eps = 0.0) a b =
  a.n = b.n && max_position_delta a b <= eps

let density t = float_of_int t.n /. (t.box ** 3.0)

let finite t =
  let ok = ref true in
  let scan (a : buf) =
    if !ok then
      for i = 0 to t.n - 1 do
        if not (Float.is_finite a.{i}) then ok := false
      done
  in
  scan t.pos_x; scan t.pos_y; scan t.pos_z;
  scan t.vel_x; scan t.vel_y; scan t.vel_z;
  scan t.acc_x; scan t.acc_y; scan t.acc_z;
  !ok
