let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  require_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  Array.fold_left max xs.(0) xs

let sorted_copy xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

let percentile xs p =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let s = sorted_copy xs in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = percentile xs 50.0

type linear_fit = { slope : float; intercept : float; r2 : float }

let linear_regression ~x ~y =
  let n = Array.length x in
  if n <> Array.length y then
    invalid_arg "Stats.linear_regression: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_regression: need at least 2 points";
  let fx = mean x and fy = mean y in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = x.(i) -. fx and dy = y.(i) -. fy in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 then invalid_arg "Stats.linear_regression: x is constant";
  let slope = !sxy /. !sxx in
  let intercept = fy -. (slope *. fx) in
  let r2 = if !syy = 0.0 then 1.0 else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

let power_law_exponent ~x ~y =
  let check name v =
    if v <= 0.0 then invalid_arg ("Stats.power_law_exponent: nonpositive " ^ name)
  in
  Array.iter (check "x") x;
  Array.iter (check "y") y;
  let lx = Array.map log x and ly = Array.map log y in
  (linear_regression ~x:lx ~y:ly).slope

let geometric_mean xs =
  require_nonempty "Stats.geometric_mean" xs;
  Array.iter (fun v ->
      if v <= 0.0 then invalid_arg "Stats.geometric_mean: nonpositive value")
    xs;
  exp (mean (Array.map log xs))

let relative_error ~expected ~actual =
  if expected = 0.0 then invalid_arg "Stats.relative_error: expected = 0";
  abs_float (actual -. expected) /. abs_float expected
