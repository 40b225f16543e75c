(* The inner loops are written against raw float arrays (not Vec3) so that
   the reference is honest about the memory access pattern the cache model
   replays: three coordinate loads per candidate neighbour. *)

let compute_gather_stats (s : System.t) =
  let { System.n; box; params; pos_x; pos_y; pos_z; acc_x; acc_y; acc_z; _ } =
    s
  in
  let rc2 = Params.cutoff2 params in
  let inv_mass = 1.0 /. params.Params.mass in
  let pe2 = ref 0.0 and hits = ref 0 in
  (* double-counted PE, halved at the end *)
  for i = 0 to n - 1 do
    let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
    let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then begin
        let dx = Min_image.delta ~box (xi -. pos_x.{j})
        and dy = Min_image.delta ~box (yi -. pos_y.{j})
        and dz = Min_image.delta ~box (zi -. pos_z.{j}) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 < rc2 then begin
          let f_over_r = Params.lj_force_over_r params r2 in
          fx := !fx +. (f_over_r *. dx);
          fy := !fy +. (f_over_r *. dy);
          fz := !fz +. (f_over_r *. dz);
          pe2 := !pe2 +. Params.lj_potential params r2;
          incr hits
        end
      end
    done;
    acc_x.{i} <- !fx *. inv_mass;
    acc_y.{i} <- !fy *. inv_mass;
    acc_z.{i} <- !fz *. inv_mass
  done;
  (0.5 *. !pe2, !hits)

let compute_gather s = fst (compute_gather_stats s)

let compute_newton3 (s : System.t) =
  let { System.n; box; params; pos_x; pos_y; pos_z; acc_x; acc_y; acc_z; _ } =
    s
  in
  let rc2 = Params.cutoff2 params in
  let inv_mass = 1.0 /. params.Params.mass in
  let pe = ref 0.0 in
  System.clear_accelerations s;
  for i = 0 to n - 2 do
    let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
    for j = i + 1 to n - 1 do
      let dx = Min_image.delta ~box (xi -. pos_x.{j})
      and dy = Min_image.delta ~box (yi -. pos_y.{j})
      and dz = Min_image.delta ~box (zi -. pos_z.{j}) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if r2 < rc2 then begin
        let f_over_r = Params.lj_force_over_r params r2 in
        let ax = f_over_r *. dx *. inv_mass
        and ay = f_over_r *. dy *. inv_mass
        and az = f_over_r *. dz *. inv_mass in
        acc_x.{i} <- acc_x.{i} +. ax;
        acc_y.{i} <- acc_y.{i} +. ay;
        acc_z.{i} <- acc_z.{i} +. az;
        acc_x.{j} <- acc_x.{j} -. ax;
        acc_y.{j} <- acc_y.{j} -. ay;
        acc_z.{j} <- acc_z.{j} -. az;
        pe := !pe +. Params.lj_potential params r2
      end
    done
  done;
  !pe

let gather_engine =
  Engine.make ~name:"reference-gather" ~compute:compute_gather
