module type Category = sig
  type t

  val all : t list
  val name : t -> string
end

module type S = sig
  type category
  type t

  val create : unit -> t
  val add : t -> category -> float -> unit
  val add_repeated : t -> category -> float -> int -> unit
  val get : t -> category -> float
  val total : t -> float
  val fraction : t -> category -> float
  val reset : t -> unit
  val merge_into : dst:t -> src:t -> unit
  val pp : Format.formatter -> t -> unit
end

module Make (C : Category) : S with type category = C.t = struct
  type category = C.t
  type t = float array

  let categories = Array.of_list C.all

  let index c =
    let rec find i =
      if i >= Array.length categories then
        invalid_arg "Ledger: unknown category"
      else if categories.(i) = c then i
      else find (i + 1)
    in
    find 0

  let create () = Array.make (Array.length categories) 0.0

  let add t cat seconds =
    if seconds < 0.0 then invalid_arg "Ledger.add: negative time";
    let i = index cat in
    t.(i) <- t.(i) +. seconds

  let add_repeated t cat seconds k =
    if seconds < 0.0 then invalid_arg "Ledger.add: negative time";
    let i = index cat in
    let v = ref t.(i) in
    for _ = 1 to k do
      v := !v +. seconds
    done;
    t.(i) <- !v

  let get t cat = t.(index cat)
  let total t = Array.fold_left ( +. ) 0.0 t

  let fraction t cat =
    let tot = total t in
    if tot = 0.0 then 0.0 else get t cat /. tot

  let reset t = Array.fill t 0 (Array.length t) 0.0
  let merge_into ~dst ~src = Array.iteri (fun i v -> dst.(i) <- dst.(i) +. v) src

  let pp fmt t =
    Array.iteri
      (fun i cat ->
        Format.fprintf fmt "%-10s %10.6f s (%.1f%%)@." (C.name cat) t.(i)
          (if total t = 0.0 then 0.0 else 100.0 *. t.(i) /. total t))
      categories
end
