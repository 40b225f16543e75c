module F32 = Sim_util.F32
module Vec4f = Vecmath.Vec4f
module Machine = Gpustream.Machine

type params = {
  box : float;
  half_box : float;
  rc2 : float;
  sigma2 : float;
  eps24 : float;
  eps4 : float;
  inv_mass : float;
}

let of_system (s : Mdcore.System.t) =
  let p = s.Mdcore.System.params in
  let box = F32.round s.Mdcore.System.box in
  { box;
    half_box = F32.mul 0.5 box;
    rc2 = F32.round (Mdcore.Params.cutoff2 p);
    sigma2 = F32.round (p.Mdcore.Params.sigma *. p.Mdcore.Params.sigma);
    eps24 = F32.round (24.0 *. p.Mdcore.Params.epsilon);
    eps4 = F32.round (4.0 *. p.Mdcore.Params.epsilon);
    inv_mass = F32.round (1.0 /. p.Mdcore.Params.mass) }

let min_image p dx =
  if dx > p.half_box then F32.sub dx p.box
  else if dx < -.p.half_box then F32.add dx p.box
  else dx

let r2 _p ~dx ~dy ~dz =
  F32.add (F32.add (F32.mul dx dx) (F32.mul dy dy)) (F32.mul dz dz)

let pair_terms p r2 =
  if r2 < p.rc2 && r2 > 0.0 then begin
    let s2 = F32.div p.sigma2 r2 in
    let s6 = F32.mul (F32.mul s2 s2) s2 in
    let s12 = F32.mul s6 s6 in
    let tm = F32.sub (F32.add s12 s12) s6 in
    let coeff = F32.mul (F32.div (F32.mul p.eps24 tm) r2) p.inv_mass in
    let pe = F32.mul p.eps4 (F32.sub s12 s6) in
    Some (coeff, pe)
  end
  else None

(* The gather loop below repeats the arithmetic of [min_image], [r2] and
   [pair_terms] (which stay the tested reference) through local inline
   helpers: a call into [F32] from another compilation unit is out of
   line and boxes its float result, once per rounding. *)

let[@inline] round x = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] wrap p dx =
  if dx > p.half_box then round (dx -. p.box)
  else if dx < -.p.half_box then round (dx +. p.box)
  else dx

type acc = {
  mutable ax : float;
  mutable ay : float;
  mutable az : float;
  mutable pe : float;
}

let acc () = { ax = 0.0; ay = 0.0; az = 0.0; pe = 0.0 }

(* One candidate pair from its binary32 coordinate differences: 1 if it
   interacts (its terms added to [acc]), else 0. *)
let[@inline] pair p acc dx dy dz =
  let dx = wrap p dx and dy = wrap p dy and dz = wrap p dz in
  let r2 =
    round (round (round (dx *. dx) +. round (dy *. dy)) +. round (dz *. dz))
  in
  if r2 < p.rc2 && r2 > 0.0 then begin
    let s2 = round (p.sigma2 /. r2) in
    let s6 = round (round (s2 *. s2) *. s2) in
    let s12 = round (s6 *. s6) in
    let tm = round (round (s12 +. s12) -. s6) in
    let coeff = round (round (round (p.eps24 *. tm) /. r2) *. p.inv_mass) in
    acc.ax <- round (acc.ax +. round (coeff *. dx));
    acc.ay <- round (acc.ay +. round (coeff *. dy));
    acc.az <- round (acc.az +. round (coeff *. dz));
    acc.pe <- round (acc.pe +. round (p.eps4 *. round (s12 -. s6)));
    1
  end
  else 0

type source =
  | Staged of Mdcore.System.f32buf * Mdcore.System.f32buf * Mdcore.System.f32buf
  | Texture of Machine.sampler * int array

type partners = All of int | Rows of int array array

let gather p acc src partners i =
  acc.ax <- 0.0;
  acc.ay <- 0.0;
  acc.az <- 0.0;
  acc.pe <- 0.0;
  let xi = ref 0.0 and yi = ref 0.0 and zi = ref 0.0 in
  (match src with
  | Staged (px, py, pz) ->
    xi := px.{i};
    yi := py.{i};
    zi := pz.{i}
  | Texture (s, _) ->
    let own = Machine.sample s ~input:0 i in
    xi := own.Vec4f.a;
    yi := own.Vec4f.b;
    zi := own.Vec4f.c;
    (match partners with
    | Rows _ -> ignore (Machine.sample s ~input:1 i)
    | All _ -> ()));
  let xi = !xi and yi = !yi and zi = !zi in
  let row = match partners with All _ -> [||] | Rows rows -> rows.(i) in
  let len = match partners with All n -> n | Rows _ -> Array.length row in
  let start =
    match (src, partners) with
    | Texture (_, starts), Rows _ -> starts.(i)
    | _ -> 0
  in
  let hits = ref 0 in
  for k = 0 to len - 1 do
    let j = match partners with All _ -> k | Rows _ -> row.(k) in
    match src with
    | Staged (px, py, pz) ->
      hits :=
        !hits
        + pair p acc (round (xi -. px.{j})) (round (yi -. py.{j}))
            (round (zi -. pz.{j}))
    | Texture (s, _) ->
      (match partners with
      | Rows _ -> ignore (Machine.sample s ~input:2 ((start + k) lsr 2))
      | All _ -> ());
      let v = Machine.sample s ~input:0 j in
      hits :=
        !hits
        + pair p acc (round (xi -. v.Vec4f.a)) (round (yi -. v.Vec4f.b))
            (round (zi -. v.Vec4f.c))
  done;
  !hits
