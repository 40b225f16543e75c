(** Periodic minimum-image displacement, two ways.

    The paper's inner loop spends much of its time "searching the 27
    neighboring unit cells for the instances of each atom pair which are
    closest" — a brute-force minimum-image search over the ±1 box shifts in
    each axis.  That search is what the Cell port first de-branches
    (copysign) and then SIMDizes (all three axes at once), so we keep the
    search variant alongside the closed-form one and test that they agree. *)

val wrap : box:float -> float -> float
(** Fold a coordinate into [\[0, box)].  Strictly below [box]: when a
    tiny negative remainder makes [rem + box] round to [box], the result
    clamps to [0.0]. *)

val delta : box:float -> float -> float
(** [delta ~box dx] is the closed-form minimum-image displacement:
    dx − box·round(dx/box).  Result lies in [\[-box/2, box/2\]]. *)

val delta_search : box:float -> float -> float
(** The same quantity by scanning the three candidate images
    (dx − box, dx, dx + box) and keeping the smallest in magnitude —
    exactly the paper's searched formulation (valid for
    |dx| ≤ 3·box/2, which wrapped coordinates guarantee). *)

val delta_search_branchless : box:float -> float -> float
(** The branch-free rewrite of {!delta_search} using [copysign], the
    paper's first SPE optimization: shift by
    −copysign(box, dx) when |dx| > box/2. *)

val dist2 : box:float -> Vecmath.Vec3.t -> Vecmath.Vec3.t -> float
(** Squared minimum-image distance between two wrapped positions. *)
