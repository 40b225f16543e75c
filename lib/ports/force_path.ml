type t = Brute | Pairlist of { skin : float }

let default = Pairlist { skin = Mdcore.Pairlist.default_skin }

let brute = Brute

let pairlist ?(skin = Mdcore.Pairlist.default_skin) () = Pairlist { skin }

(* A pairlist request degrades silently to the brute engine when the box
   cannot host the list (min-image bound) — small fixtures keep their
   historical O(N²) behaviour bit-for-bit, production sizes get the
   list.  An invalid skin (NaN, infinite, nonpositive) is a caller bug
   and raises via the same validation [Pairlist.create] applies. *)
let resolve t system =
  match t with
  | Brute -> None
  | Pairlist { skin } ->
    if not (Float.is_finite skin) || skin <= 0.0 then
      invalid_arg "Force_path: skin must be positive and finite";
    if Mdcore.Pairlist.admissible ~skin system then
      Some (Mdcore.Pairlist.create ~skin system)
    else None
