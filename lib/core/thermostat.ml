let scale_velocities (s : System.t) factor =
  for i = 0 to s.System.n - 1 do
    s.System.vel_x.{i} <- factor *. s.System.vel_x.{i};
    s.System.vel_y.{i} <- factor *. s.System.vel_y.{i};
    s.System.vel_z.{i} <- factor *. s.System.vel_z.{i}
  done

let rescale s ~target =
  if target < 0.0 then invalid_arg "Thermostat.rescale: negative target";
  let current = Observables.temperature s in
  if current > 0.0 then scale_velocities s (sqrt (target /. current))
