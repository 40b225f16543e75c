let kinetic_energy (s : System.t) =
  let acc = ref 0.0 in
  for i = 0 to s.System.n - 1 do
    acc :=
      !acc
      +. (s.System.vel_x.{i} *. s.System.vel_x.{i})
      +. (s.System.vel_y.{i} *. s.System.vel_y.{i})
      +. (s.System.vel_z.{i} *. s.System.vel_z.{i})
  done;
  0.5 *. s.System.params.Params.mass *. !acc

let temperature (s : System.t) =
  if s.System.n < 2 then 0.0
  else 2.0 *. kinetic_energy s /. (3.0 *. float_of_int (s.System.n - 1))

let total_momentum (s : System.t) =
  let px = ref 0.0 and py = ref 0.0 and pz = ref 0.0 in
  for i = 0 to s.System.n - 1 do
    px := !px +. s.System.vel_x.{i};
    py := !py +. s.System.vel_y.{i};
    pz := !pz +. s.System.vel_z.{i}
  done;
  Vecmath.Vec3.scale s.System.params.Params.mass
    (Vecmath.Vec3.make !px !py !pz)

let bin_centers ~bins ~rmax =
  if bins <= 0 then invalid_arg "Observables.bin_centers: bins";
  let dr = rmax /. float_of_int bins in
  Array.init bins (fun b -> (float_of_int b +. 0.5) *. dr)

let radial_distribution (s : System.t) ~bins ~rmax =
  if bins <= 0 then invalid_arg "Observables.radial_distribution: bins";
  if rmax <= 0.0 || rmax > s.System.box /. 2.0 then
    invalid_arg "Observables.radial_distribution: rmax must be in (0, box/2]";
  let n = s.System.n in
  let dr = rmax /. float_of_int bins in
  let counts = Array.make bins 0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let r2 =
        Min_image.dist2 ~box:s.System.box (System.position s i)
          (System.position s j)
      in
      if r2 < rmax *. rmax then begin
        let b = int_of_float (sqrt r2 /. dr) in
        let b = min b (bins - 1) in
        counts.(b) <- counts.(b) + 1
      end
    done
  done;
  (* Normalize by the ideal-gas expectation for each shell:
     n_ideal(b) = (N/2) * rho * 4 pi r^2 dr. *)
  let rho = System.density s in
  Array.mapi
    (fun b c ->
      let r = (float_of_int b +. 0.5) *. dr in
      let shell = 4.0 *. Float.pi *. r *. r *. dr in
      let ideal = float_of_int n /. 2.0 *. rho *. shell in
      if ideal = 0.0 then 0.0 else float_of_int c /. ideal)
    counts
