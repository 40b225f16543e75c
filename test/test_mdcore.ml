(* Tests for the MD physics core: LJ potential, minimum image, system
   construction, force engines and the integrator. *)

module Params = Mdcore.Params
module System = Mdcore.System
module Min_image = Mdcore.Min_image
module Init = Mdcore.Init
module Forces = Mdcore.Forces
module Verlet = Mdcore.Verlet
module Observables = Mdcore.Observables
module Pairlist = Mdcore.Pairlist
module Vec3 = Vecmath.Vec3

let p = Params.default

(* 128 atoms at density 0.8 is the smallest convenient size satisfying
   the minimum-image criterion (box ~ 5.43 > 2 * cutoff). *)
let small_system ?(n = 128) () = Init.build ~seed:7 ~n ()

(* ---------------- Params / LJ ---------------- *)

let test_lj_zero_at_sigma () =
  Alcotest.(check (float 1e-12)) "V(sigma) = 0" 0.0
    (Params.lj_potential p (p.Params.sigma *. p.Params.sigma))

let test_lj_minimum_depth () =
  let rmin = Params.lj_minimum p in
  Alcotest.(check (float 1e-12)) "V(rmin) = -epsilon" (-.p.Params.epsilon)
    (Params.lj_potential p (rmin *. rmin))

let test_lj_force_sign_change () =
  let rmin = Params.lj_minimum p in
  let inside = (0.9 *. rmin) ** 2.0 and outside = (1.1 *. rmin) ** 2.0 in
  Alcotest.(check bool) "repulsive inside rmin" true
    (Params.lj_force_over_r p inside > 0.0);
  Alcotest.(check bool) "attractive outside rmin" true
    (Params.lj_force_over_r p outside < 0.0)

let test_lj_force_zero_at_minimum () =
  let rmin2 = Params.lj_minimum p ** 2.0 in
  Alcotest.(check (float 1e-10)) "F(rmin) = 0" 0.0
    (Params.lj_force_over_r p rmin2)

let test_lj_force_is_gradient () =
  (* F(r) = -dV/dr, checked by central differences at several radii. *)
  List.iter
    (fun r ->
      let h = 1e-6 in
      let v_at x = Params.lj_potential p (x *. x) in
      let dvdr = (v_at (r +. h) -. v_at (r -. h)) /. (2.0 *. h) in
      let f = Params.lj_force_over_r p (r *. r) *. r in
      Alcotest.(check bool)
        (Printf.sprintf "gradient at r=%g" r)
        true
        (abs_float (f +. dvdr) <= 1e-4 *. (1.0 +. abs_float f)))
    [ 0.9; 1.0; 1.12; 1.5; 2.0; 2.4 ]

let test_params_validation () =
  Alcotest.(check bool) "negative dt rejected" true
    (try
       Params.validate { p with Params.dt = -1.0 };
       false
     with Invalid_argument _ -> true)

(* ---------------- Minimum image ---------------- *)

let test_min_image_range () =
  let box = 10.0 in
  List.iter
    (fun dx ->
      let d = Min_image.delta ~box dx in
      Alcotest.(check bool)
        (Printf.sprintf "delta(%g) in range" dx)
        true
        (d >= -.box /. 2.0 -. 1e-12 && d <= (box /. 2.0) +. 1e-12))
    [ 0.0; 4.9; 5.1; 9.9; -9.9; 15.0; -23.4 ]

let min_image_agreement_prop =
  QCheck.Test.make ~name:"closed form = search = branchless" ~count:1000
    QCheck.(pair (float_range 1.0 100.0) (float_range (-1.0) 1.0))
    (fun (box, frac) ->
      (* wrapped coordinates give differences in (-box, box) *)
      let dx = frac *. box *. 0.999 in
      let a = Min_image.delta ~box dx in
      let b = Min_image.delta_search ~box dx in
      let c = Min_image.delta_search_branchless ~box dx in
      abs_float (a -. b) < 1e-9 *. box && abs_float (a -. c) < 1e-9 *. box)

(* Regression: at |dx| = box/2 both periodic images are equidistant and
   the three variants used to disagree (the closed form flips the sign,
   the searched/branchless forms kept dx).  All three must resolve the
   tie identically — matching [delta]'s half-away-from-zero rounding —
   or the SPE ports' de-branched kernels diverge from the reference at
   exactly-boundary pairs. *)
let test_min_image_boundary_ties () =
  let box = 10.0 in
  let eps = 1e-9 in
  List.iter
    (fun dx ->
      let a = Min_image.delta ~box dx in
      let b = Min_image.delta_search ~box dx in
      let c = Min_image.delta_search_branchless ~box dx in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "search agrees at %g" dx)
        a b;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "branchless agrees at %g" dx)
        a c)
    [ box /. 2.0; -.box /. 2.0;
      (box /. 2.0) -. eps; (-.box /. 2.0) +. eps;
      (box /. 2.0) +. eps; (-.box /. 2.0) -. eps ];
  (* the tie itself resolves away from dx's sign, like Float.round *)
  Alcotest.(check (float 0.0)) "+box/2 maps to -box/2" (-.box /. 2.0)
    (Min_image.delta_search_branchless ~box (box /. 2.0));
  Alcotest.(check (float 0.0)) "-box/2 maps to +box/2" (box /. 2.0)
    (Min_image.delta_search ~box (-.box /. 2.0))

let test_wrap () =
  Alcotest.(check (float 1e-12)) "wrap positive" 2.0 (Min_image.wrap ~box:10.0 12.0);
  Alcotest.(check (float 1e-12)) "wrap negative" 8.0 (Min_image.wrap ~box:10.0 (-2.0));
  Alcotest.(check (float 1e-12)) "wrap inside" 3.0 (Min_image.wrap ~box:10.0 3.0)

let test_dist2_symmetry () =
  let box = 8.0 in
  let a = Vec3.make 0.5 7.5 4.0 and b = Vec3.make 7.5 0.5 4.2 in
  Alcotest.(check (float 1e-12)) "symmetric"
    (Min_image.dist2 ~box a b) (Min_image.dist2 ~box b a)

(* The documented contract is a half-open interval: wrap must return a
   value strictly below box for EVERY finite input, including the
   adversarial ones where Float.rem's tiny negative remainder makes
   [r +. box] round to box exactly. *)
let test_wrap_boundary_adversarial () =
  let check_one box x =
    let r = Min_image.wrap ~box x in
    let r' = System.wrap_coord box x in
    if not (r >= 0.0 && r < box) then
      Alcotest.failf "wrap ~box:%h %h = %h outside [0, box)" box x r;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "System.wrap_coord agrees at %h" x)
      r r'
  in
  List.iter
    (fun box ->
      List.iter (check_one box)
        [ 0.0; -0.0; -1e-17; -1e-300; -4.9e-324;
          box; -.box; Float.pred box; -.Float.pred box; Float.succ box;
          2.0 *. box; -2.0 *. box;
          1e9 *. box; (-1e9 *. box) +. 0.3;
          (1e9 *. box) -. (box *. 1e-8) ])
    [ 1.0; 10.0; 0.1; 3.7 ]

(* Regression demonstration: the pre-fix formula (fold negative
   remainders up by one box, no clamp) really does return exactly [box]
   for a tiny negative input — the bug the clamp closes. *)
let test_wrap_old_path_returned_box () =
  let old_wrap ~box x =
    let r = Float.rem x box in
    if r < 0.0 then r +. box else r
  in
  Alcotest.(check (float 0.0)) "old path leaks box" 1.0
    (old_wrap ~box:1.0 (-1e-17));
  Alcotest.(check (float 0.0)) "fixed path clamps to 0" 0.0
    (Min_image.wrap ~box:1.0 (-1e-17))

(* Epsilon-tolerant cell sizing: a box that is an exact real multiple of
   the cell width must never lose a cell to the floating division
   landing one ulp under the integer.  The sweep also certifies that the
   naive [int_of_float (box /. width)] floor does fail on some widths —
   i.e. that the tolerance is load-bearing, not decorative. *)
let test_axis_cells_exact_multiples () =
  let naive_failures = ref 0 in
  for k = 1 to 2000 do
    let w = 0.1 +. (float_of_int k *. 1e-3) in
    let box = 3.0 *. w in
    if int_of_float (box /. w) < 3 then incr naive_failures;
    let m = Pairlist.axis_cells ~box ~width:w in
    if m <> 3 then
      Alcotest.failf "axis_cells ~box:(3 * %h) ~width:%h = %d (want 3)" w w m;
    (* A clearly-non-multiple box must not get rounded up. *)
    Alcotest.(check int)
      (Printf.sprintf "3.5 cells stays 3 at width %g" w)
      3
      (Pairlist.axis_cells ~box:(3.5 *. w) ~width:w)
  done;
  Alcotest.(check bool) "naive floor fails somewhere in the sweep" true
    (!naive_failures > 0);
  Alcotest.(check bool) "width validation" true
    (try
       ignore (Pairlist.axis_cells ~box:1.0 ~width:0.0);
       false
     with Invalid_argument _ -> true)

(* Atoms parked on the bin-index edges — exactly 0 and one ulp below box
   on each axis — must bin in range for the pairlist's cell-binned build
   (runs with assertions enabled, so an out-of-range index would abort). *)
let test_binning_boundary_atoms () =
  let s = Init.build ~seed:11 ~n:1000 () in
  let edge = Float.pred s.System.box in
  s.System.pos_x.{0} <- 0.0; s.System.pos_y.{0} <- edge;
  s.System.pos_z.{0} <- 0.0;
  s.System.pos_x.{1} <- edge; s.System.pos_y.{1} <- edge;
  s.System.pos_z.{1} <- edge;
  s.System.pos_x.{2} <- System.wrap_coord s.System.box (-1e-17);
  let pe_ref = Forces.compute_gather (System.copy s) in
  let pl = Pairlist.create s in
  Alcotest.(check bool) "pairlist uses cells" true (Pairlist.uses_cells pl);
  let pe_list = (Pairlist.engine pl).Mdcore.Engine.compute s in
  Alcotest.(check bool) "pairlist PE finite" true (Float.is_finite pe_list);
  (* Same positions, same physics: the list agrees with the reference
     gather to roundoff (relative — the parked atoms can sit deep in the
     r^-12 wall). *)
  Alcotest.(check bool) "engines agree" true
    (abs_float (pe_ref -. pe_list) <= 1e-9 *. (1.0 +. abs_float pe_ref))

(* ---------------- System / Init ---------------- *)

let test_system_minimum_image_criterion () =
  Alcotest.(check bool) "small box rejected" true
    (try
       ignore (System.create ~n:10 ~box:4.0 ~params:p);
       false
     with Invalid_argument _ -> true)

let test_init_positions_in_box () =
  let s = small_system ~n:128 () in
  for i = 0 to s.System.n - 1 do
    let q = System.position s i in
    if q.Vec3.x < 0.0 || q.Vec3.x >= s.System.box
       || q.Vec3.y < 0.0 || q.Vec3.y >= s.System.box
       || q.Vec3.z < 0.0 || q.Vec3.z >= s.System.box
    then Alcotest.failf "atom %d outside box" i
  done

let test_init_density () =
  let s = Init.build ~n:125 ~density:0.8 () in
  Alcotest.(check (float 1e-9)) "density" 0.8 (System.density s)

let test_init_no_overlaps () =
  let s = small_system ~n:216 () in
  let worst = ref infinity in
  for i = 0 to s.System.n - 1 do
    for j = i + 1 to s.System.n - 1 do
      let d2 =
        Min_image.dist2 ~box:s.System.box (System.position s i)
          (System.position s j)
      in
      worst := min !worst d2
    done
  done;
  Alcotest.(check bool) "no catastrophic overlap" true (sqrt !worst > 0.5)

let test_init_zero_momentum () =
  let s = small_system ~n:128 () in
  let mom = Observables.total_momentum s in
  Alcotest.(check bool) "momentum removed" true (Vec3.norm mom < 1e-10)

let test_init_temperature () =
  let s = Init.build ~n:500 ~temperature:1.4 () in
  let t = Observables.temperature s in
  Alcotest.(check bool) "temperature near target" true
    (abs_float (t -. 1.4) < 0.15)

let test_init_deterministic () =
  let a = Init.build ~seed:3 ~n:128 () and b = Init.build ~seed:3 ~n:128 () in
  Alcotest.(check bool) "same seed same system" true
    (System.equal_positions a b)

let test_system_copy_independent () =
  let s = small_system () in
  let c = System.copy s in
  c.System.pos_x.{0} <- c.System.pos_x.{0} +. 1.0;
  Alcotest.(check bool) "copy does not alias" false
    (System.equal_positions s c)

(* ---------------- Forces ---------------- *)

let test_gather_matches_newton3 () =
  let s1 = small_system () in
  let s2 = System.copy s1 in
  let pe1 = Forces.compute_gather s1 in
  let pe2 = Forces.compute_newton3 s2 in
  Alcotest.(check bool) "PE agrees" true (abs_float (pe1 -. pe2) < 1e-9);
  Alcotest.(check bool) "accelerations agree" true
    (System.max_acceleration_delta s1 s2 < 1e-9)

let test_gather_counts_hits_symmetrically () =
  let s = small_system () in
  let _, hits = Forces.compute_gather_stats s in
  Alcotest.(check int) "hits double-counted (even)" 0 (hits mod 2)

let test_forces_net_zero () =
  let s = small_system () in
  ignore (Forces.compute_gather s);
  let sum (axis : System.buf) =
    let acc = ref 0.0 in
    for i = 0 to Bigarray.Array1.dim axis - 1 do
      acc := !acc +. axis.{i}
    done;
    !acc
  in
  (* Newton's third law: total force (= mass * sum of accelerations)
     vanishes. *)
  Alcotest.(check bool) "net force ~ 0" true
    (abs_float (sum s.System.acc_x) < 1e-8
    && abs_float (sum s.System.acc_y) < 1e-8
    && abs_float (sum s.System.acc_z) < 1e-8)

let test_two_atom_force () =
  (* Two atoms at distance rmin along x: zero force; closer: repulsion. *)
  let params = { p with Params.cutoff = 2.5 } in
  let sys = System.create ~n:2 ~box:10.0 ~params in
  System.set_position sys 0 (Vec3.make 1.0 5.0 5.0);
  System.set_position sys 1 (Vec3.make 2.0 5.0 5.0);
  ignore (Forces.compute_gather sys);
  Alcotest.(check bool) "atoms at r=1 repel along x" true
    (sys.System.acc_x.{0} < 0.0 && sys.System.acc_x.{1} > 0.0);
  Alcotest.(check (float 1e-12)) "no y force" 0.0 sys.System.acc_y.{0}

let test_cutoff_respected () =
  let params = { p with Params.cutoff = 2.5 } in
  let sys = System.create ~n:2 ~box:10.0 ~params in
  System.set_position sys 0 (Vec3.make 1.0 5.0 5.0);
  System.set_position sys 1 (Vec3.make 4.0 5.0 5.0);
  let pe, hits = Forces.compute_gather_stats sys in
  Alcotest.(check int) "no interaction beyond cutoff" 0 hits;
  Alcotest.(check (float 1e-12)) "no PE" 0.0 pe

let test_periodic_interaction () =
  (* Atoms near opposite box faces interact through the boundary. *)
  let params = { p with Params.cutoff = 2.5 } in
  let sys = System.create ~n:2 ~box:10.0 ~params in
  System.set_position sys 0 (Vec3.make 0.5 5.0 5.0);
  System.set_position sys 1 (Vec3.make 9.5 5.0 5.0);
  let _, hits = Forces.compute_gather_stats sys in
  Alcotest.(check int) "periodic pair found" 2 hits

(* ---------------- Verlet ---------------- *)

let test_verlet_energy_conservation () =
  let s = Init.build ~seed:11 ~n:128
      ~params:{ p with Params.dt = 0.001 } ()
  in
  let records = Verlet.run s ~engine:Forces.gather_engine ~steps:50 () in
  let e0 = (List.hd records).Verlet.total_energy in
  let worst =
    List.fold_left
      (fun acc r ->
        Float.max acc (abs_float ((r.Verlet.total_energy -. e0) /. e0)))
      0.0 records
  in
  Alcotest.(check bool)
    (Printf.sprintf "drift %.2e < 2e-3" worst)
    true (worst < 2e-3)

let test_verlet_momentum_conservation () =
  let s = small_system () in
  ignore (Verlet.run s ~engine:Forces.gather_engine ~steps:20 ());
  Alcotest.(check bool) "momentum stays ~ 0" true
    (Vec3.norm (Observables.total_momentum s) < 1e-8)

let test_verlet_record_structure () =
  let s = small_system () in
  let records = Verlet.run s ~engine:Forces.gather_engine ~steps:5 () in
  Alcotest.(check int) "steps+1 records" 6 (List.length records);
  List.iteri
    (fun i r -> Alcotest.(check int) "step numbering" i r.Verlet.step)
    records

let test_verlet_dt_sensitivity () =
  (* Halving dt must reduce energy drift. *)
  let drift dt =
    let s = Init.build ~seed:5 ~n:128 ~params:{ p with Params.dt = dt } () in
    let records = Verlet.run s ~engine:Forces.gather_engine ~steps:40 () in
    let e0 = (List.hd records).Verlet.total_energy in
    let last = List.nth records 40 in
    abs_float ((last.Verlet.total_energy -. e0) /. e0)
  in
  Alcotest.(check bool) "smaller dt conserves better" true
    (drift 0.0005 < drift 0.004)

let test_verlet_positions_stay_wrapped () =
  let s = small_system () in
  ignore (Verlet.run s ~engine:Forces.gather_engine ~steps:20 ());
  for i = 0 to s.System.n - 1 do
    let q = System.position s i in
    if q.Vec3.x < 0.0 || q.Vec3.x >= s.System.box then
      Alcotest.failf "atom %d escaped the box" i
  done

(* ---------------- Alternative engines ---------------- *)

let test_pairlist_matches_reference () =
  let s1 = small_system ~n:216 () in
  let s2 = System.copy s1 in
  let pl = Pairlist.create s2 in
  let pe_ref = Forces.compute_gather s1 in
  let pe_pl = (Pairlist.engine pl).Mdcore.Engine.compute s2 in
  Alcotest.(check bool) "PE agrees" true (abs_float (pe_ref -. pe_pl) < 1e-9);
  Alcotest.(check bool) "forces agree" true
    (System.max_acceleration_delta s1 s2 < 1e-9)

let test_pairlist_rebuild_cadence () =
  let s = Init.build ~seed:13 ~n:216 () in
  let pl = Pairlist.create s in
  ignore (Verlet.run s ~engine:(Pairlist.engine pl) ~steps:20 ());
  let rebuilds = Pairlist.rebuild_count pl in
  Alcotest.(check bool)
    (Printf.sprintf "rebuilds (%d) far fewer than steps" rebuilds)
    true
    (rebuilds >= 1 && rebuilds < 12)

let test_pairlist_trajectory_matches () =
  let s1 = Init.build ~seed:17 ~n:216 () in
  let s2 = System.copy s1 in
  let pl = Pairlist.create s2 in
  ignore (Verlet.run s1 ~engine:Forces.gather_engine ~steps:10 ());
  ignore (Verlet.run s2 ~engine:(Pairlist.engine pl) ~steps:10 ());
  Alcotest.(check bool) "same trajectory" true
    (System.max_position_delta s1 s2 < 1e-7)

let test_pairlist_wrong_system_rejected () =
  let s1 = small_system ~n:216 () in
  let s2 = System.copy s1 in
  let pl = Pairlist.create s1 in
  Alcotest.(check bool) "foreign system rejected" true
    (try
       ignore ((Pairlist.engine pl).Mdcore.Engine.compute s2);
       false
     with Invalid_argument _ -> true)

let test_pairlist_skin_validation () =
  let s = small_system ~n:216 () in
  let rejected skin =
    try
      ignore (Pairlist.create ~skin s);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "NaN skin rejected" true (rejected Float.nan);
  Alcotest.(check bool) "infinite skin rejected" true
    (rejected Float.infinity);
  Alcotest.(check bool) "zero skin rejected" true (rejected 0.0);
  Alcotest.(check bool) "negative skin rejected" true (rejected (-0.1));
  (* box(216) ≈ 6.46σ: a 1.0σ skin pushes cutoff+skin past box/2 *)
  Alcotest.(check bool) "skin past the min-image bound rejected" true
    (rejected 1.0);
  Alcotest.(check bool) "default skin admissible at 216 atoms" true
    (Pairlist.admissible s);
  Alcotest.(check bool) "huge skin not admissible" false
    (Pairlist.admissible ~skin:1.0 s);
  Alcotest.(check bool) "NaN skin not admissible" false
    (Pairlist.admissible ~skin:Float.nan s);
  (* box(128) ≈ 5.43σ < 2*(2.5+0.4): the fixture size every small test
     uses stays on the brute fallback *)
  Alcotest.(check bool) "128-atom box below the bound" false
    (Pairlist.admissible (small_system ()))

let test_pairlist_cadence_drops_with_skin () =
  (* The skin trade-off under fast drift: a hot system crosses the
     skin/2 trigger sooner, and a thicker skin must stretch the rebuild
     interval. *)
  let rebuilds skin =
    let s = Init.build ~seed:23 ~temperature:2.5 ~n:216 () in
    let pl = Pairlist.create ~skin s in
    ignore (Verlet.run s ~engine:(Pairlist.engine pl) ~steps:40 ());
    Pairlist.rebuild_count pl
  in
  let thin = rebuilds 0.15 and thick = rebuilds 0.6 in
  Alcotest.(check bool)
    (Printf.sprintf "thicker skin rebuilds less: %d (0.15σ) > %d (0.6σ)"
       thin thick)
    true (thin > thick)

let test_pairlist_rebuild_timing_bitwise () =
  (* Rebuilding every step instead of on the drift trigger must change
     nothing: beyond-cutoff list entries are skipped before any
     accumulation, so forces are independent of rebuild cadence. *)
  let s1 = Init.build ~seed:29 ~n:216 () in
  let s2 = System.copy s1 in
  let pl1 = Pairlist.create s1 in
  let pl2 = Pairlist.create s2 in
  let every_step =
    Mdcore.Engine.make ~name:"pairlist-rebuild-every-step"
      ~compute:(fun sys ->
        Pairlist.force_rebuild pl2;
        (Pairlist.engine pl2).Mdcore.Engine.compute sys)
  in
  let r1 = Verlet.run s1 ~engine:(Pairlist.engine pl1) ~steps:15 () in
  let r2 = Verlet.run s2 ~engine:every_step ~steps:15 () in
  Alcotest.(check bool) "ablation actually rebuilt more" true
    (Pairlist.rebuild_count pl2 > Pairlist.rebuild_count pl1);
  Alcotest.(check bool) "records bitwise" true (r1 = r2);
  Alcotest.(check bool) "positions bitwise" true
    (System.max_position_delta s1 s2 = 0.0);
  Alcotest.(check bool) "accelerations bitwise" true
    (System.max_acceleration_delta s1 s2 = 0.0)

let test_pairlist_halflist_matches_full_bitwise () =
  (* Below the chunking threshold the Newton-3 half-list runs serially,
     and with unit mass (exact inv_mass multiply, fl(b-a) = -fl(a-b))
     its per-atom accumulation order equals the full-row gather's — so
     the two traversals agree to the bit, at any pool size. *)
  let base = Init.build ~seed:37 ~n:216 () in
  let reference =
    let s = System.copy base in
    let pl = Pairlist.create s in
    ignore (Pairlist.compute_full_stats pl s);
    s
  in
  List.iter
    (fun domains ->
      let pool = Mdpar.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Mdpar.shutdown pool)
        (fun () ->
          let s = System.copy base in
          let pl = Pairlist.create ~pool s in
          ignore ((Pairlist.engine pl).Mdcore.Engine.compute s);
          Alcotest.(check bool)
            (Printf.sprintf
               "half-list Newton-3 = full gather bitwise at %d domain(s)"
               domains)
            true
            (System.max_acceleration_delta reference s = 0.0)))
    [ 1; 4 ]

let test_pairlist_chunked_domain_invariant () =
  (* 512 atoms puts the engine on the chunked path.  The chunk count is
     a pure function of n and the merge runs in fixed chunk order, so
     forces are byte-identical for any pool size; the chunked grouping
     re-associates the per-atom sums, so against the serial full gather
     the match is exact physics but not exact bits (~1 ulp). *)
  let base = Init.build ~seed:37 ~n:512 () in
  let run domains =
    let s = System.copy base in
    let pool = Mdpar.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Mdpar.shutdown pool)
      (fun () ->
        let pl = Pairlist.create ~pool s in
        ignore ((Pairlist.engine pl).Mdcore.Engine.compute s));
    s
  in
  let d1 = run 1 and d4 = run 4 in
  Alcotest.(check bool) "1 domain = 4 domains bitwise" true
    (System.max_acceleration_delta d1 d4 = 0.0);
  let full =
    let s = System.copy base in
    let pl = Pairlist.create s in
    ignore (Pairlist.compute_full_stats pl s);
    s
  in
  Alcotest.(check bool) "chunked ~ full gather to 1e-12" true
    (System.max_acceleration_delta d1 full < 1e-12)

(* Systems for the bitwise tests of the rewritten force loops, each with
   the skin its pairlist uses: [Init.build] configurations at N = 128
   (skin 0.1, so the narrow box admits a list), 600 and 2048, and three
   boxes on the list's edges — exactly 2·(rc+skin) (admissible,
   brute-built), 3·(rc+skin) and 4·(rc+skin) (cell-binned, at exact
   cell-width multiples) — each with atoms parked at 0 and one ulp
   below the box. *)
let bitwise_systems () =
  let skin = Pairlist.default_skin in
  let reach = p.Params.cutoff +. skin in
  let edge_box m =
    let box = float_of_int m *. reach in
    let n = int_of_float (0.8 *. box *. box *. box) in
    let base = Init.build ~seed:(40 + m) ~n () in
    let s = System.create ~n ~box ~params:p in
    let scale = box /. base.System.box in
    let place (dst : System.buf) (src : System.buf) =
      for i = 0 to n - 1 do
        dst.{i} <- System.wrap_coord box (src.{i} *. scale)
      done
    in
    place s.System.pos_x base.System.pos_x;
    place s.System.pos_y base.System.pos_y;
    place s.System.pos_z base.System.pos_z;
    let top = Float.pred box in
    s.System.pos_x.{0} <- 0.0; s.System.pos_y.{0} <- 0.0;
    s.System.pos_z.{0} <- top;
    s.System.pos_x.{1} <- top; s.System.pos_y.{1} <- top;
    s.System.pos_z.{1} <- 0.0;
    (Printf.sprintf "box %d(rc+skin), n=%d" m n, s, skin)
  in
  [ ("n=128", Init.build ~seed:5 ~n:128 (), 0.1);
    ("n=600", Init.build ~seed:6 ~n:600 (), skin);
    ("n=2048", Init.build ~seed:8 ~n:2048 (), skin) ]
  @ List.map edge_box [ 2; 3; 4 ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The binary64 gather against the reference, with both partner sets:
   the list's full rows (through [compute_full_stats] and directly) and
   the N² sweep.  Per-row hits start at -1, so a row left unwritten
   shows. *)
let test_full_stats_matches_gather_bitwise () =
  List.iter
    (fun (name, base, skin) ->
      let n = base.System.n in
      let reference = System.copy base in
      let pe_ref, hits_ref = Forces.compute_gather_stats reference in
      let check what (s : System.t) (pe, hits) =
        let name = name ^ ", " ^ what in
        Alcotest.(check int) (name ^ ": hits") hits_ref hits;
        if not (same_bits pe_ref pe) then
          Alcotest.failf "%s: PE %h <> %h" name pe pe_ref;
        List.iter
          (fun (axis, (a : System.buf), (b : System.buf)) ->
            for i = 0 to n - 1 do
              if not (same_bits a.{i} b.{i}) then
                Alcotest.failf "%s: acc_%s.{%d} %h <> %h" name axis i b.{i}
                  a.{i}
            done)
          [ ("x", reference.System.acc_x, s.System.acc_x);
            ("y", reference.System.acc_y, s.System.acc_y);
            ("z", reference.System.acc_z, s.System.acc_z) ]
      in
      let s = System.copy base in
      let pl = Pairlist.create ~skin s in
      check "full stats" s (Pairlist.compute_full_stats pl s);
      let rows_hits = Array.make n (-1) in
      let s_rows = System.copy base in
      check "rows" s_rows
        (Pairlist.gather s_rows (Pairlist.Rows (Pairlist.full_rows pl))
           ~row_hits:rows_hits);
      let all_hits = Array.make n (-1) in
      let s_all = System.copy base in
      check "all" s_all
        (Pairlist.gather s_all (Pairlist.All n) ~row_hits:all_hits);
      for i = 0 to n - 1 do
        if rows_hits.(i) <> all_hits.(i) then
          Alcotest.failf "%s: row %d hits %d (rows) <> %d (all)" name i
            rows_hits.(i) all_hits.(i)
      done;
      Alcotest.(check int) (name ^ ": per-row hits sum") hits_ref
        (Array.fold_left ( + ) 0 all_hits))
    (bitwise_systems ())

(* Run [f] with the default pool sized [domains], restoring the
   previous default afterwards. *)
let with_default_domains domains f =
  let saved = Mdpar.default_domains () in
  Mdpar.set_default_domains domains;
  Fun.protect ~finally:(fun () -> Mdpar.set_default_domains saved) f

let check_same_bufs name pairs =
  List.iter
    (fun (what, (a : System.buf), (b : System.buf)) ->
      for i = 0 to Bigarray.Array1.dim a - 1 do
        if not (same_bits a.{i} b.{i}) then
          Alcotest.failf "%s: %s.{%d} %h <> %h" name what i b.{i} a.{i}
      done)
    pairs

(* The full-row gather over lists built on explicit 2- and 4-domain
   pools (rows binned in parallel) against the reference gather: once
   on the built list, again on a repeat evaluation, and once more after
   a jitter past the skin forces a rebuild on the pool.  [Init.relax]
   builds its list on the default pool, so [Init.build] must not depend
   on the pool size either. *)
let test_full_stats_pooled_bitwise () =
  List.iter
    (fun domains ->
      let pool = Mdpar.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Mdpar.shutdown pool)
        (fun () ->
          List.iter
            (fun (name, base, skin) ->
              let name = Printf.sprintf "%s, %d domains" name domains in
              let reference = System.copy base and s = System.copy base in
              let pl = Pairlist.create ~skin ~pool s in
              let check what =
                let pe_ref, hits_ref = Forces.compute_gather_stats reference in
                let pe, hits = Pairlist.compute_full_stats pl s in
                let name = name ^ ", " ^ what in
                Alcotest.(check int) (name ^ ": hits") hits_ref hits;
                if not (same_bits pe_ref pe) then
                  Alcotest.failf "%s: PE %h <> %h" name pe pe_ref;
                check_same_bufs name
                  [ ("acc_x", reference.System.acc_x, s.System.acc_x);
                    ("acc_y", reference.System.acc_y, s.System.acc_y);
                    ("acc_z", reference.System.acc_z, s.System.acc_z) ]
              in
              check "first";
              check "repeat";
              let rebuilds = Pairlist.rebuild_count pl in
              List.iter
                (fun sys ->
                  Init.jitter_positions sys ~magnitude:0.3
                    (Sim_util.Rng.create 17))
                [ reference; s ];
              check "rebuilt";
              Alcotest.(check int) (name ^ ": rebuilt once") (rebuilds + 1)
                (Pairlist.rebuild_count pl))
            (bitwise_systems ())))
    [ 2; 4 ];
  let build domains =
    with_default_domains domains (fun () -> Init.build ~n:864 ())
  in
  let serial = build 1 in
  List.iter
    (fun domains ->
      let pooled = build domains in
      check_same_bufs
        (Printf.sprintf "Init.build ~n:864, 1 vs %d domains" domains)
        [ ("pos_x", serial.System.pos_x, pooled.System.pos_x);
          ("pos_y", serial.System.pos_y, pooled.System.pos_y);
          ("pos_z", serial.System.pos_z, pooled.System.pos_z);
          ("vel_x", serial.System.vel_x, pooled.System.vel_x);
          ("vel_y", serial.System.vel_y, pooled.System.vel_y);
          ("vel_z", serial.System.vel_z, pooled.System.vel_z) ])
    [ 2; 4 ]

(* [Init.relax]'s descent with forces from the reference gather, step
   for step: the oracle the list-driven relaxation must match bitwise. *)
let gather_relax (s : System.t) ~iterations ~max_step =
  let { System.n; pos_x; pos_y; pos_z; acc_x; acc_y; acc_z; _ } = s in
  let gamma = 1e-3 in
  let cap v = Float.min max_step (Float.max (-.max_step) v) in
  for _ = 1 to iterations do
    ignore (Forces.compute_gather s);
    for i = 0 to n - 1 do
      pos_x.{i} <- pos_x.{i} +. cap (gamma *. acc_x.{i});
      pos_y.{i} <- pos_y.{i} +. cap (gamma *. acc_y.{i});
      pos_z.{i} <- pos_z.{i} +. cap (gamma *. acc_z.{i});
      System.wrap_atom s i
    done
  done

(* One size per force path [Init.relax] can take: 128 atoms admit no
   list (brute gather), 200 and 500 a brute-built list, 864 a
   cell-binned one.  The 0.3σ jitter drives atoms past the skin's
   drift trigger, so each list is rebuilt twice mid-descent. *)
let test_relax_matches_gather_bitwise () =
  List.iter
    (fun (n, admissible, cells) ->
      let base = Init.build ~seed:n ~n () in
      Init.jitter_positions base ~magnitude:0.3 (Sim_util.Rng.create n);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: list admissible" n)
        admissible (Pairlist.admissible base);
      if admissible then
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: cell-binned build" n)
          cells
          (Pairlist.uses_cells (Pairlist.create_uninstrumented base));
      let relaxed = System.copy base and reference = System.copy base in
      Init.relax relaxed ~iterations:25 ~max_step:0.05;
      gather_relax reference ~iterations:25 ~max_step:0.05;
      List.iter
        (fun (axis, (a : System.buf), (b : System.buf)) ->
          for i = 0 to n - 1 do
            if not (same_bits a.{i} b.{i}) then
              Alcotest.failf "n=%d: pos_%s.{%d} %h <> %h" n axis i b.{i}
                a.{i}
          done)
        [ ("x", reference.System.pos_x, relaxed.System.pos_x);
          ("y", reference.System.pos_y, relaxed.System.pos_y);
          ("z", reference.System.pos_z, relaxed.System.pos_z) ])
    [ (128, false, false); (200, true, false); (500, true, false);
      (864, true, true) ]

(* The relaxation's list is not a simulated device's: building a system
   with profiling and tracing on must leave no pairlist instrument or
   track behind.  A device list built afterwards does register them,
   which shows the probe below can see one. *)
let test_relax_records_nothing () =
  let pairlist_names () =
    let instruments =
      List.map (fun (x : Mdprof.sample) -> x.Mdprof.s_name) (Mdprof.samples ())
    and tracks =
      List.map (fun (e : Mdobs.event) -> e.Mdobs.track_name) (Mdobs.events ())
    in
    List.filter
      (String.starts_with ~prefix:"pairlist")
      (instruments @ tracks)
  in
  Mdprof.clear ();
  Mdprof.enable ();
  Mdobs.enable (Mdobs.Sink.memory ());
  Fun.protect
    ~finally:(fun () -> Mdprof.clear (); Mdobs.clear ())
    (fun () ->
      let s = Init.build ~n:864 () in
      Alcotest.(check (list string)) "nothing recorded by Init.build" []
        (pairlist_names ());
      ignore (Pairlist.compute_full_stats (Pairlist.create s) s);
      Alcotest.(check bool) "a device list is recorded" true
        (pairlist_names () <> []))

let test_rdf_validation () =
  let s = small_system () in
  Alcotest.(check bool) "rmax beyond box/2 rejected" true
    (try
       ignore (Observables.radial_distribution s ~bins:10 ~rmax:s.System.box);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero bins rejected" true
    (try
       ignore (Observables.radial_distribution s ~bins:0 ~rmax:1.0);
       false
     with Invalid_argument _ -> true)

let test_rdf_ideal_gas_near_one () =
  (* Uniform random positions: g(r) ~ 1 away from r = 0. *)
  let params = { p with Params.cutoff = 2.5 } in
  let s = System.create ~n:512 ~box:12.0 ~params in
  let rng = Sim_util.Rng.create 77 in
  for i = 0 to 511 do
    System.set_position s i
      (Vec3.make
         (Sim_util.Rng.uniform rng 0.0 12.0)
         (Sim_util.Rng.uniform rng 0.0 12.0)
         (Sim_util.Rng.uniform rng 0.0 12.0))
  done;
  let g = Observables.radial_distribution s ~bins:12 ~rmax:6.0 in
  (* average the outer bins (statistics improve with r) *)
  let outer = Array.sub g 6 6 in
  let avg = Array.fold_left ( +. ) 0.0 outer /. 6.0 in
  Alcotest.(check bool)
    (Printf.sprintf "ideal-gas plateau ~1 (got %.3f)" avg)
    true
    (abs_float (avg -. 1.0) < 0.15)

let test_rdf_excluded_core_and_first_shell () =
  (* An equilibrated LJ fluid: no pairs inside the hard core, and a
     first-neighbour peak well above 1 near r_min. *)
  let s = Init.build ~seed:3 ~n:256 () in
  ignore (Verlet.run s ~engine:Forces.gather_engine ~steps:20 ());
  let bins = 24 in
  let rmax = s.System.box /. 2.0 in
  let g = Observables.radial_distribution s ~bins ~rmax in
  let centers = Observables.bin_centers ~bins ~rmax in
  (* core: all bins with r < 0.8 sigma must be empty *)
  Array.iteri
    (fun b r -> if r < 0.8 then Alcotest.(check (float 0.0)) "hard core" 0.0 g.(b))
    centers;
  (* first shell: max g in r in [1.0, 1.4] exceeds 1.5 *)
  let peak = ref 0.0 in
  Array.iteri
    (fun b r -> if r >= 1.0 && r <= 1.4 then peak := Float.max !peak g.(b))
    centers;
  Alcotest.(check bool)
    (Printf.sprintf "first shell peak %.2f > 1.5" !peak)
    true (!peak > 1.5)

let test_verlet_time_reversible () =
  (* Velocity Verlet is symplectic and time-reversible: run forward,
     negate velocities, run the same number of steps, and the system
     retraces its path back to the start. *)
  let s = Init.build ~seed:29 ~n:128 ~params:{ p with Params.dt = 0.002 } () in
  let start = System.copy s in
  ignore (Verlet.run s ~engine:Forces.gather_engine ~steps:25 ());
  for i = 0 to s.System.n - 1 do
    s.System.vel_x.{i} <- -.s.System.vel_x.{i};
    s.System.vel_y.{i} <- -.s.System.vel_y.{i};
    s.System.vel_z.{i} <- -.s.System.vel_z.{i}
  done;
  ignore (Verlet.run s ~engine:Forces.gather_engine ~steps:25 ());
  Alcotest.(check bool)
    (Printf.sprintf "returns to start (delta %.2e)"
       (System.max_position_delta s start))
    true
    (System.max_position_delta s start < 1e-7)

(* ---------------- Thermostat / trajectory output ---------------- *)

let test_thermostat_rescale_exact () =
  let s = small_system () in
  Mdcore.Thermostat.rescale s ~target:1.5;
  Alcotest.(check (float 1e-9)) "temperature set exactly" 1.5
    (Observables.temperature s)

let test_thermostat_rescale_preserves_momentum () =
  let s = small_system () in
  Mdcore.Thermostat.rescale s ~target:0.7;
  Alcotest.(check bool) "momentum still ~0" true
    (Vec3.norm (Observables.total_momentum s) < 1e-9)

let test_thermostat_berendsen_relaxes () =
  let s = small_system () in
  Mdcore.Thermostat.rescale s ~target:0.5;
  let gap_before = abs_float (Observables.temperature s -. 1.2) in
  Mdcore.Thermostat.berendsen s ~target:1.2 ~tau:(10.0 *. p.Params.dt);
  let gap_after = abs_float (Observables.temperature s -. 1.2) in
  Alcotest.(check bool) "moves toward target" true (gap_after < gap_before)

let test_thermostat_equilibrate () =
  let s = small_system ~n:216 () in
  let _ =
    Mdcore.Thermostat.equilibrate s ~engine:Forces.gather_engine ~target:0.9
      ~steps:120 ()
  in
  let t = Observables.temperature s in
  Alcotest.(check bool)
    (Printf.sprintf "equilibrated near 0.9 (got %.3f)" t)
    true
    (abs_float (t -. 0.9) < 0.15)

let test_thermostat_validation () =
  let s = small_system () in
  Alcotest.(check bool) "negative target rejected" true
    (try
       Mdcore.Thermostat.rescale s ~target:(-1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero tau rejected" true
    (try
       Mdcore.Thermostat.berendsen s ~target:1.0 ~tau:0.0;
       false
     with Invalid_argument _ -> true)

let test_xyz_roundtrip () =
  let s = small_system () in
  let frames = [ Mdcore.System.copy s; Mdcore.System.copy s; s ] in
  let path = Filename.temp_file "mdsim-test" ".xyz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mdcore.Xyz.write_trajectory ~path ~frames ();
      Alcotest.(check int) "frame count" 3 (Mdcore.Xyz.frame_count ~path))

let test_xyz_malformed () =
  let path = Filename.temp_file "mdsim-test" ".xyz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not-a-count\ncomment\n";
      close_out oc;
      Alcotest.(check bool) "malformed rejected" true
        (try
           ignore (Mdcore.Xyz.frame_count ~path);
           false
         with Failure _ -> true))

let test_vacf_starts_at_one () =
  let s = small_system () in
  let snapshots = ref [] in
  ignore
    (Verlet.run s ~engine:Forces.gather_engine ~steps:10
       ~record:(fun _ -> snapshots := Mdcore.System.copy s :: !snapshots)
       ());
  let vacf = Observables.velocity_autocorrelation (List.rev !snapshots) in
  Alcotest.(check (float 1e-12)) "C(0) = 1" 1.0 vacf.(0);
  Alcotest.(check bool) "decorrelates in a dense fluid" true
    (vacf.(10) < 0.999)

let test_vacf_free_particles_constant () =
  (* No forces: velocities never change, so C(k) = 1 for all k. *)
  let s = small_system () in
  let idle = Mdcore.Engine.make ~name:"free" ~compute:(fun sys ->
      Mdcore.System.clear_accelerations sys;
      0.0)
  in
  let snapshots = ref [] in
  ignore
    (Verlet.run s ~engine:idle ~steps:5
       ~record:(fun _ -> snapshots := Mdcore.System.copy s :: !snapshots)
       ());
  let vacf = Observables.velocity_autocorrelation (List.rev !snapshots) in
  Array.iter
    (fun c -> Alcotest.(check (float 1e-12)) "ballistic: C = 1" 1.0 c)
    vacf

let test_diffusion_positive_in_fluid () =
  let s = Init.build ~seed:37 ~n:216 ~temperature:1.4 () in
  let snapshots = ref [] in
  ignore
    (Verlet.run s ~engine:Forces.gather_engine ~steps:30
       ~record:(fun _ -> snapshots := Mdcore.System.copy s :: !snapshots)
       ());
  let d =
    Observables.diffusion_coefficient (List.rev !snapshots)
      ~dt:p.Params.dt
  in
  Alcotest.(check bool)
    (Printf.sprintf "D > 0 in a hot fluid (got %.4f)" d)
    true (d > 0.0)

let test_vacf_validation () =
  Alcotest.(check bool) "empty list rejected" true
    (try
       ignore (Observables.velocity_autocorrelation []);
       false
     with Invalid_argument _ -> true)

(* A property: potential energy is invariant under global translation. *)
let translation_invariance_prop =
  QCheck.Test.make ~name:"PE invariant under global translation" ~count:20
    (QCheck.triple
       (QCheck.float_range (-5.0) 5.0)
       (QCheck.float_range (-5.0) 5.0)
       (QCheck.float_range (-5.0) 5.0))
    (fun (tx, ty, tz) ->
      let s1 = Init.build ~seed:23 ~n:128 () in
      let s2 = System.copy s1 in
      for i = 0 to s2.System.n - 1 do
        System.set_position s2 i
          (Vec3.add (System.position s2 i) (Vec3.make tx ty tz))
      done;
      let pe1 = Forces.compute_gather s1 and pe2 = Forces.compute_gather s2 in
      abs_float (pe1 -. pe2) < 1e-6 *. abs_float pe1)

let qcheck t = QCheck_alcotest.to_alcotest t

let tests =
  ( "mdcore",
    [ Alcotest.test_case "lj zero at sigma" `Quick test_lj_zero_at_sigma;
      Alcotest.test_case "lj minimum depth" `Quick test_lj_minimum_depth;
      Alcotest.test_case "lj force sign change" `Quick
        test_lj_force_sign_change;
      Alcotest.test_case "lj force zero at minimum" `Quick
        test_lj_force_zero_at_minimum;
      Alcotest.test_case "lj force is -dV/dr" `Quick test_lj_force_is_gradient;
      Alcotest.test_case "params validation" `Quick test_params_validation;
      Alcotest.test_case "min image range" `Quick test_min_image_range;
      qcheck min_image_agreement_prop;
      Alcotest.test_case "min image boundary ties" `Quick
        test_min_image_boundary_ties;
      Alcotest.test_case "wrap" `Quick test_wrap;
      Alcotest.test_case "wrap boundary adversarial" `Quick
        test_wrap_boundary_adversarial;
      Alcotest.test_case "wrap old path returned box" `Quick
        test_wrap_old_path_returned_box;
      Alcotest.test_case "axis cells exact multiples" `Quick
        test_axis_cells_exact_multiples;
      Alcotest.test_case "binning boundary atoms" `Quick
        test_binning_boundary_atoms;
      Alcotest.test_case "dist2 symmetry" `Quick test_dist2_symmetry;
      Alcotest.test_case "minimum-image criterion" `Quick
        test_system_minimum_image_criterion;
      Alcotest.test_case "init positions in box" `Quick
        test_init_positions_in_box;
      Alcotest.test_case "init density" `Quick test_init_density;
      Alcotest.test_case "init no overlaps" `Quick test_init_no_overlaps;
      Alcotest.test_case "init zero momentum" `Quick test_init_zero_momentum;
      Alcotest.test_case "init temperature" `Quick test_init_temperature;
      Alcotest.test_case "init deterministic" `Quick test_init_deterministic;
      Alcotest.test_case "system copy independent" `Quick
        test_system_copy_independent;
      Alcotest.test_case "gather = newton3" `Quick test_gather_matches_newton3;
      Alcotest.test_case "hits double-counted" `Quick
        test_gather_counts_hits_symmetrically;
      Alcotest.test_case "net force zero" `Quick test_forces_net_zero;
      Alcotest.test_case "two-atom force" `Quick test_two_atom_force;
      Alcotest.test_case "cutoff respected" `Quick test_cutoff_respected;
      Alcotest.test_case "periodic interaction" `Quick
        test_periodic_interaction;
      Alcotest.test_case "energy conservation" `Slow
        test_verlet_energy_conservation;
      Alcotest.test_case "momentum conservation" `Quick
        test_verlet_momentum_conservation;
      Alcotest.test_case "record structure" `Quick test_verlet_record_structure;
      Alcotest.test_case "dt sensitivity" `Slow test_verlet_dt_sensitivity;
      Alcotest.test_case "positions stay wrapped" `Quick
        test_verlet_positions_stay_wrapped;
      Alcotest.test_case "time reversibility" `Quick
        test_verlet_time_reversible;
      Alcotest.test_case "pairlist matches reference" `Quick
        test_pairlist_matches_reference;
      Alcotest.test_case "pairlist rebuild cadence" `Quick
        test_pairlist_rebuild_cadence;
      Alcotest.test_case "pairlist trajectory matches" `Quick
        test_pairlist_trajectory_matches;
      Alcotest.test_case "pairlist rejects foreign system" `Quick
        test_pairlist_wrong_system_rejected;
      Alcotest.test_case "pairlist skin validation" `Quick
        test_pairlist_skin_validation;
      Alcotest.test_case "pairlist cadence drops with skin" `Slow
        test_pairlist_cadence_drops_with_skin;
      Alcotest.test_case "pairlist rebuild timing bitwise" `Quick
        test_pairlist_rebuild_timing_bitwise;
      Alcotest.test_case "pairlist half-list = full bitwise" `Quick
        test_pairlist_halflist_matches_full_bitwise;
      Alcotest.test_case "pairlist chunked domain invariant" `Quick
        test_pairlist_chunked_domain_invariant;
      Alcotest.test_case "rdf validation" `Quick test_rdf_validation;
      Alcotest.test_case "rdf ideal gas" `Quick test_rdf_ideal_gas_near_one;
      Alcotest.test_case "rdf core and first shell" `Quick
        test_rdf_excluded_core_and_first_shell;
      Alcotest.test_case "thermostat rescale" `Quick
        test_thermostat_rescale_exact;
      Alcotest.test_case "rescale preserves momentum" `Quick
        test_thermostat_rescale_preserves_momentum;
      Alcotest.test_case "berendsen relaxes" `Quick
        test_thermostat_berendsen_relaxes;
      Alcotest.test_case "equilibrate" `Slow test_thermostat_equilibrate;
      Alcotest.test_case "thermostat validation" `Quick
        test_thermostat_validation;
      Alcotest.test_case "xyz roundtrip" `Quick test_xyz_roundtrip;
      Alcotest.test_case "xyz malformed" `Quick test_xyz_malformed;
      Alcotest.test_case "vacf starts at one" `Quick test_vacf_starts_at_one;
      Alcotest.test_case "vacf free particles" `Quick
        test_vacf_free_particles_constant;
      Alcotest.test_case "diffusion positive" `Quick
        test_diffusion_positive_in_fluid;
      Alcotest.test_case "vacf validation" `Quick test_vacf_validation;
      qcheck translation_invariance_prop;
      Alcotest.test_case "pairlist full stats = gather bitwise" `Quick
        test_full_stats_matches_gather_bitwise;
      Alcotest.test_case "full stats pooled = gather bitwise" `Quick
        test_full_stats_pooled_bitwise;
      Alcotest.test_case "relax = gather relaxation bitwise" `Quick
        test_relax_matches_gather_bitwise;
      Alcotest.test_case "relax records nothing" `Quick
        test_relax_records_nothing
    ] )
