type t = { x : float; y : float; z : float }

let zero = { x = 0.0; y = 0.0; z = 0.0 }
let make x y z = { x; y; z }

let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale k a = { x = k *. a.x; y = k *. a.y; z = k *. a.z }

let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

let cross a b =
  { x = (a.y *. b.z) -. (a.z *. b.y);
    y = (a.z *. b.x) -. (a.x *. b.z);
    z = (a.x *. b.y) -. (a.y *. b.x) }

let norm2 a = dot a a
let norm a = sqrt (norm2 a)

let normalize a =
  let n = norm a in
  if n = 0.0 then invalid_arg "Vec3.normalize: zero vector";
  scale (1.0 /. n) a

let lerp a b u = add a (scale u (sub b a))

let of_array arr =
  match arr with
  | [| x; y; z |] -> { x; y; z }
  | _ -> invalid_arg "Vec3.of_array: expected 3 elements"

let to_array a = [| a.x; a.y; a.z |]

let equal ?(eps = 0.0) a b =
  let close u v = abs_float (u -. v) <= eps in
  close a.x b.x && close a.y b.y && close a.z b.z

let pp fmt a = Format.fprintf fmt "(%g, %g, %g)" a.x a.y a.z
