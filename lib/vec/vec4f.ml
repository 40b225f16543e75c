module F32 = Sim_util.F32

type t = { a : float; b : float; c : float; d : float }

let make a b c d =
  { a = F32.round a; b = F32.round b; c = F32.round c; d = F32.round d }

let zero = make 0.0 0.0 0.0 0.0

let lane v i =
  match i with
  | 0 -> v.a
  | 1 -> v.b
  | 2 -> v.c
  | 3 -> v.d
  | _ -> invalid_arg "Vec4f.lane: index out of range"

let with_lane v i x =
  let x = F32.round x in
  match i with
  | 0 -> { v with a = x }
  | 1 -> { v with b = x }
  | 2 -> { v with c = x }
  | 3 -> { v with d = x }
  | _ -> invalid_arg "Vec4f.with_lane: index out of range"

let w v = v.d
