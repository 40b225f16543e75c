module Rng = Sim_util.Rng

let lattice_box ~n ~density =
  if n <= 0 then invalid_arg "Init.lattice_box: n must be positive";
  if density <= 0.0 then invalid_arg "Init.lattice_box: density";
  (float_of_int n /. density) ** (1.0 /. 3.0)

(* Place [n] atoms on a face-centred-cubic lattice (4 sites per cubic
   cell, m^3 cells with m = ceil((n/4)^(1/3))), thinning the site list
   evenly when n is not exactly 4*m^3.  FCC is the standard LJ starting
   configuration: at liquid densities its nearest-neighbour distance sits
   near the potential minimum, so the initial forces are gentle and the
   integrator's first steps stay well-conditioned. *)
let fcc_offsets =
  [| (0.0, 0.0, 0.0); (0.5, 0.5, 0.0); (0.5, 0.0, 0.5); (0.0, 0.5, 0.5) |]

let place_lattice system =
  let n = system.System.n in
  let box = system.System.box in
  let m =
    let rec fit c = if 4 * c * c * c >= n then c else fit (c + 1) in
    fit 1
  in
  let sites = 4 * m * m * m in
  let cell = box /. float_of_int m in
  let stride = float_of_int sites /. float_of_int n in
  for k = 0 to n - 1 do
    let site = min (int_of_float (float_of_int k *. stride)) (sites - 1) in
    let basis = site mod 4 in
    let c = site / 4 in
    let iz = c / (m * m) in
    let iy = c / m mod m in
    let ix = c mod m in
    let ox, oy, oz = fcc_offsets.(basis) in
    let coord i o = (float_of_int i +. 0.25 +. o) *. cell in
    System.set_position system k
      (Vecmath.Vec3.make (coord ix ox) (coord iy oy) (coord iz oz))
  done

let remove_net_momentum system =
  let n = system.System.n in
  let avg (arr : System.buf) =
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. arr.{i}
    done;
    !sum /. float_of_int n
  in
  let mx = avg system.System.vel_x
  and my = avg system.System.vel_y
  and mz = avg system.System.vel_z in
  for i = 0 to n - 1 do
    system.System.vel_x.{i} <- system.System.vel_x.{i} -. mx;
    system.System.vel_y.{i} <- system.System.vel_y.{i} -. my;
    system.System.vel_z.{i} <- system.System.vel_z.{i} -. mz
  done

let maxwell_velocities system ~temperature rng =
  if temperature < 0.0 then invalid_arg "Init.maxwell_velocities: temperature";
  let sigma = sqrt (temperature /. system.System.params.Params.mass) in
  for i = 0 to system.System.n - 1 do
    System.set_velocity system i
      (Vecmath.Vec3.make
         (Rng.gaussian_scaled rng ~mean:0.0 ~sigma)
         (Rng.gaussian_scaled rng ~mean:0.0 ~sigma)
         (Rng.gaussian_scaled rng ~mean:0.0 ~sigma))
  done;
  remove_net_momentum system

let jitter_positions system ~magnitude rng =
  if magnitude < 0.0 then invalid_arg "Init.jitter_positions: magnitude";
  for i = 0 to system.System.n - 1 do
    let p = System.position system i in
    System.set_position system i
      (Vecmath.Vec3.make
         (p.x +. Rng.uniform rng (-.magnitude) magnitude)
         (p.y +. Rng.uniform rng (-.magnitude) magnitude)
         (p.z +. Rng.uniform rng (-.magnitude) magnitude))
  done

(* Capped steepest descent: push atoms down the potential gradient with a
   bounded per-step displacement.  When the atom count is not a perfect
   4*m^3, the thinned FCC lattice leaves a few sub-sigma pairs whose r^-12
   repulsion would wreck the integrator's first steps; a handful of
   descent iterations relaxes them without disturbing the bulk.  Forces
   come from a gather over a neighbour list's full rows whenever the box
   admits one — bitwise [Forces.compute_gather], but O(n) — and from
   the brute gather otherwise, so the choice changes speed, not bits.
   The list records nothing: it is not a simulated device's. *)
let relax system ~iterations ~max_step =
  if iterations < 0 then invalid_arg "Init.relax: negative iterations";
  if max_step <= 0.0 then invalid_arg "Init.relax: max_step must be positive";
  let n = system.System.n in
  let compute =
    if Pairlist.admissible system then begin
      let list = Pairlist.create_uninstrumented system in
      fun s -> fst (Pairlist.compute_full_stats list s)
    end
    else Forces.compute_gather
  in
  (* Step size chosen so typical forces move atoms well below max_step;
     the cap is what matters for the near-overlap pairs. *)
  let gamma = 1e-3 in
  let cap v = Float.min max_step (Float.max (-.max_step) v) in
  for _ = 1 to iterations do
    ignore (compute system);
    for i = 0 to n - 1 do
      system.System.pos_x.{i} <-
        system.System.pos_x.{i} +. cap (gamma *. system.System.acc_x.{i});
      system.System.pos_y.{i} <-
        system.System.pos_y.{i} +. cap (gamma *. system.System.acc_y.{i});
      system.System.pos_z.{i} <-
        system.System.pos_z.{i} +. cap (gamma *. system.System.acc_z.{i});
      System.wrap_atom system i
    done
  done;
  System.clear_accelerations system

let build ?(seed = 42) ?(density = 0.8) ?(temperature = 1.0)
    ?(params = Params.default) ~n () =
  let box = lattice_box ~n ~density in
  let system = System.create ~n ~box ~params in
  let rng = Rng.create seed in
  place_lattice system;
  (* 2% of the FCC cell: enough to break symmetry, small enough to keep
     the initial configuration far from the r^-12 wall. *)
  let m = Float.cbrt (float_of_int n /. 4.0) in
  jitter_positions system ~magnitude:(0.02 *. box /. Float.max 1.0 m)
    (Rng.split rng);
  relax system ~iterations:25 ~max_step:(0.05 *. params.Params.sigma);
  maxwell_velocities system ~temperature (Rng.split rng);
  system
