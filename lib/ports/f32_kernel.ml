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

(* The fault-replaying texture row below repeats the arithmetic of
   [min_image], [r2] and [pair_terms] (which stay the tested reference)
   through local inline helpers: a call into [F32] from another
   compilation unit is out of line and boxes its float result, once per
   rounding. *)

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

(* The row kernel of f32_kernel_stubs.c: [pair]'s arithmetic in native
   binary32, bit for bit.  Each returns the row's interaction count, or
   -1 when the own index or a partner lies outside the position store
   (the [Staged] block's streams, or the texels). *)
external staged_rows : params -> acc -> source -> int array -> int -> int
  = "mdports_f32_staged_rows" [@@noalloc]

external staged_all : params -> acc -> source -> int -> int -> int
  = "mdports_f32_staged_all" [@@noalloc]

external texels_rows :
  params -> acc -> Vec4f.t array -> int array -> int -> int
  = "mdports_f32_texels_rows" [@@noalloc]

external texels_all : params -> acc -> Vec4f.t array -> int -> int -> int
  = "mdports_f32_texels_all" [@@noalloc]

let checked hits =
  if hits < 0 then invalid_arg "F32_kernel.gather: index out of range";
  hits

(* A texture row fetch by fetch while the texture fault stream is live:
   each [Machine.sample] may draw a bit flip, so the fetches keep the
   fragment's order — own texel, row descriptor once, then per entry
   the index texel before the partner's position texel. *)
let sampled p acc s starts partners i =
  acc.ax <- 0.0;
  acc.ay <- 0.0;
  acc.az <- 0.0;
  acc.pe <- 0.0;
  let own = Machine.sample s ~input:0 i in
  let xi = own.Vec4f.a and yi = own.Vec4f.b and zi = own.Vec4f.c in
  let row =
    match partners with
    | All _ -> [||]
    | Rows rows ->
      ignore (Machine.sample s ~input:1 i);
      rows.(i)
  in
  let len = match partners with All n -> n | Rows _ -> Array.length row in
  let start = match partners with All _ -> 0 | Rows _ -> starts.(i) in
  let hits = ref 0 in
  for k = 0 to len - 1 do
    let j =
      match partners with
      | All _ -> k
      | Rows _ ->
        ignore (Machine.sample s ~input:2 ((start + k) lsr 2));
        row.(k)
    in
    let v = Machine.sample s ~input:0 j in
    hits :=
      !hits
      + pair p acc (round (xi -. v.Vec4f.a)) (round (yi -. v.Vec4f.b))
          (round (zi -. v.Vec4f.c))
  done;
  !hits

(* A texture row's fetches in closed form: the own texel, plus for a
   list row its descriptor and per entry one index texel (four indices
   per texel) and one position texel; for the sweep, n position
   texels.  [Machine.texels] makes the range checks [Machine.sample]
   would, once per row; the kernel checks each partner. *)
let gather p acc src partners i =
  match (src, partners) with
  | Staged _, All n -> checked (staged_all p acc src n i)
  | Staged _, Rows rows -> checked (staged_rows p acc src rows.(i) i)
  | Texture (s, starts), All n ->
    let store = Machine.texels s ~input:0 ~lo:i ~hi:i ~fetches:(1 + n) in
    if Array.length store = 0 then sampled p acc s starts partners i
    else checked (texels_all p acc store n i)
  | Texture (s, starts), Rows rows ->
    let row = rows.(i) in
    let len = Array.length row in
    let store = Machine.texels s ~input:0 ~lo:i ~hi:i ~fetches:(1 + len) in
    if Array.length store = 0 then sampled p acc s starts partners i
    else begin
      ignore (Machine.texels s ~input:1 ~lo:i ~hi:i ~fetches:1);
      let start = starts.(i) in
      if len > 0 then
        ignore
          (Machine.texels s ~input:2 ~lo:(start lsr 2)
             ~hi:((start + len - 1) lsr 2) ~fetches:len);
      checked (texels_rows p acc store row i)
    end
