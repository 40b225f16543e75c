type t = { mutable state : int64; mutable cached_gauss : float option }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.of_int seed; cached_gauss = None }

let copy t = { state = t.state; cached_gauss = t.cached_gauss }

type state = { bits : int64; cached : float option }

let state t = { bits = t.state; cached = t.cached_gauss }
let of_state s = { state = s.bits; cached_gauss = s.cached }

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  { state = mix seed; cached_gauss = None }

(* Largest exact multiple of [n] not exceeding [range]: accepting only
   draws strictly below it leaves every residue class the same number of
   accepted values.  An inclusive bound derived from [range - 1] would
   accept one extra value and overweight residue 0. *)
let rejection_limit ~range n = Int64.mul n (Int64.div range n)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let n64 = Int64.of_int n in
  let lim = rejection_limit ~range:(Int64.add mask 1L) n64 in
  let rec draw () =
    let raw = Int64.logand (next_int64 t) mask in
    if raw >= lim then draw () else Int64.to_int (Int64.rem raw n64)
  in
  draw ()

let float t =
  (* 53 high bits give a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let gaussian t =
  match t.cached_gauss with
  | Some g ->
    t.cached_gauss <- None;
    g
  | None ->
    let rec draw () =
      let u = uniform t (-1.0) 1.0 and v = uniform t (-1.0) 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then draw ()
      else begin
        let scale = sqrt (-2.0 *. log s /. s) in
        t.cached_gauss <- Some (v *. scale);
        u *. scale
      end
    in
    draw ()

let gaussian_scaled t ~mean ~sigma = mean +. (sigma *. gaussian t)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
