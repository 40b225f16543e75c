type t = Brute | Pairlist of { skin : float }

let default = Pairlist { skin = Mdcore.Pairlist.default_skin }

let brute = Brute

let pairlist ?(skin = Mdcore.Pairlist.default_skin) () = Pairlist { skin }

let names = [ "n2"; "pairlist" ]

let encode = function
  | Brute -> ("n2", Mdcore.Pairlist.default_skin)
  | Pairlist { skin } -> ("pairlist", skin)

let decode ~engine ~skin =
  match engine with
  | "n2" -> Ok Brute
  | "pairlist" -> Ok (Pairlist { skin })
  | other -> Error (Printf.sprintf "unknown force engine %S" other)

(* The box and both bounds print with %.17g: at one ulp below a bound,
   fewer digits would read "box 5 < 5". *)
let setup ?(engine = "default") ?(skin = Mdcore.Pairlist.default_skin) ~n
    ~density () =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let cutoff = Mdcore.Params.default.Mdcore.Params.cutoff in
  if n <= 0 then err "atoms must be positive (got %d)" n
  else if (not (Float.is_finite density)) || density <= 0.0 then
    err "density must be a finite positive number (got %g)" density
  else if (not (Float.is_finite skin)) || skin <= 0.0 then
    err "skin must be a finite positive number of σ (got %g)" skin
  else
    let box = Mdcore.Init.lattice_box ~n ~density in
    (* [System.create]'s minimum-image criterion. *)
    if box < 2.0 *. cutoff then
      err
        "box %.17g violates the minimum-image criterion (needs >= 2*cutoff \
         = %.17g; raise atoms or lower density)"
        box (2.0 *. cutoff)
    else
      match engine with
      | "default" | "" -> Ok (Pairlist { skin })
      | engine -> (
        match decode ~engine ~skin with
        (* [Pairlist.admissible]: an explicitly requested list that the
           box cannot host must not silently run N². *)
        | Ok (Pairlist _) when box < 2.0 *. (cutoff +. skin) ->
          err
            "engine pairlist needs box >= 2*(cutoff+skin) = %.17g (box \
             %.17g; raise atoms or lower skin)"
            (2.0 *. (cutoff +. skin))
            box
        | r -> r)

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
