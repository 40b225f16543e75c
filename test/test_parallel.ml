(* Tests for the Mdpar domain pool and the parallel/serial equivalence of
   every path that uses it: cell-binned pairlist builds and the parallel
   experiment harness.  The contract under test: host parallelism must
   never change a result — lists, forces and PE bit-for-bit at any pool
   size, reports byte-identical. *)

module System = Mdcore.System
module Pairlist = Mdcore.Pairlist
module Init = Mdcore.Init
module Verlet = Mdcore.Verlet

let pool_sizes = [ 1; 2; 4 ]
let pool n = Mdpar.get ~domains:n ()

(* ---------------- Mdpar primitives ---------------- *)

let test_parallel_for_covers_range () =
  List.iter
    (fun d ->
      let hit = Array.make 1000 0 in
      Mdpar.parallel_for (pool d) ~lo:0 ~hi:999 (fun i ->
          hit.(i) <- hit.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "each index once (%d domains)" d)
        true
        (Array.for_all (fun c -> c = 1) hit))
    pool_sizes;
  (* empty and singleton ranges *)
  Mdpar.parallel_for (pool 4) ~lo:5 ~hi:4 (fun _ -> Alcotest.fail "empty");
  let one = ref 0 in
  Mdpar.parallel_for (pool 4) ~lo:3 ~hi:3 (fun i -> one := i);
  Alcotest.(check int) "singleton" 3 !one

let test_map_list_order () =
  List.iter
    (fun d ->
      let xs = List.init 57 Fun.id in
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved (%d domains)" d)
        (List.map (fun x -> (x * 7) + 1) xs)
        (Mdpar.map_list (pool d) (fun x -> (x * 7) + 1) xs))
    pool_sizes;
  Alcotest.(check (list int)) "empty" []
    (Mdpar.map_list (pool 4) Fun.id [])

let test_nested_regions () =
  (* An inner region entered from a worker must degrade gracefully, not
     deadlock: 8 outer items each running an inner parallel_for. *)
  let p = pool 4 in
  let outer =
    Mdpar.map_list p
      (fun k ->
        let cells = Array.make 100 0 in
        Mdpar.parallel_for p ~lo:0 ~hi:99 (fun i ->
            cells.(i) <- (k * 100) + i);
        Array.fold_left ( + ) 0 cells)
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int)) "nested totals"
    (List.init 8 (fun k -> (k * 100 * 100) + (99 * 100 / 2)))
    outer

let test_exception_propagation () =
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "exn reraised (%d domains)" d)
        true
        (try
           Mdpar.parallel_for (pool d) ~lo:0 ~hi:99 (fun i ->
               if i = 37 then failwith "boom");
           false
         with Failure m -> m = "boom");
      (* the pool must stay usable afterwards *)
      let cells = Array.make 10 0 in
      Mdpar.parallel_for (pool d) ~lo:1 ~hi:10 (fun i -> cells.(i - 1) <- i);
      Alcotest.(check int) "pool alive after exn" 55
        (Array.fold_left ( + ) 0 cells))
    pool_sizes

(* ---------------- Pairlist: cell-binned O(N) builds ---------------- *)

(* 768 atoms at density 0.8: box ~ 9.86 sigma >= 3 * (cutoff + skin), so
   the cell-binned path is active. *)
let pairlist_system () = Init.build ~seed:5 ~n:768 ()

let test_pairlist_cells_active () =
  let s = pairlist_system () in
  Alcotest.(check bool) "cell path active" true
    (Pairlist.uses_cells (Pairlist.create s));
  (* 216 atoms: box ~ 6.46 sigma admits the list (>= 2 * reach) but not
     a 3-cell stencil, so builds fall back to the O(N^2) scan. *)
  let tiny = Init.build ~seed:5 ~n:216 () in
  Alcotest.(check bool) "small box falls back to O(N^2)" false
    (Pairlist.uses_cells (Pairlist.create tiny))

let test_pairlist_build_equivalence () =
  (* Same stored lists from the cell-binned and brute builds, at every
     pool size: identical neighbour totals, interactions, forces and PE
     bit-for-bit. *)
  let reference = pairlist_system () in
  let brute_s = System.copy reference in
  let brute = Pairlist.create ~pool:(pool 1) brute_s in
  Pairlist.force_rebuild_brute brute;
  let pe_brute = (Pairlist.engine brute).Mdcore.Engine.compute brute_s in
  List.iter
    (fun d ->
      let s = System.copy reference in
      let pl = Pairlist.create ~pool:(pool d) s in
      Pairlist.force_rebuild pl;
      Alcotest.(check int)
        (Printf.sprintf "entries match (%d domains)" d)
        (Pairlist.neighbour_count brute)
        (Pairlist.neighbour_count pl);
      let pe = (Pairlist.engine pl).Mdcore.Engine.compute s in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "PE bit-identical (%d domains)" d)
        pe_brute pe;
      Alcotest.(check int)
        (Printf.sprintf "interactions match (%d domains)" d)
        (Pairlist.last_interaction_count brute)
        (Pairlist.last_interaction_count pl);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "forces bit-identical (%d domains)" d)
        0.0
        (System.max_acceleration_delta s brute_s))
    pool_sizes

let test_pairlist_rebuild_cadence_invariant () =
  (* The rebuild trigger depends only on drift vs the stored reference
     positions; identical lists must give identical cadence and
     trajectories at every pool size. *)
  let reference = pairlist_system () in
  let run d =
    let s = System.copy reference in
    let pl = Pairlist.create ~pool:(pool d) s in
    ignore (Verlet.run s ~engine:(Pairlist.engine pl) ~steps:12 ());
    (Pairlist.rebuild_count pl, Pairlist.last_interaction_count pl, s)
  in
  let r1, i1, s1 = run 1 in
  List.iter
    (fun d ->
      let rd, id, sd = run d in
      Alcotest.(check int)
        (Printf.sprintf "rebuilds (%d domains)" d)
        r1 rd;
      Alcotest.(check int)
        (Printf.sprintf "interactions (%d domains)" d)
        i1 id;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "trajectory bit-identical (%d domains)" d)
        0.0
        (System.max_position_delta s1 sd))
    [ 2; 4 ]

(* ---------------- Harness: parallel run_all ---------------- *)

let test_run_all_byte_identical () =
  let render pool_size =
    let ctx = Harness.Context.create ~scale:Harness.Context.quick_scale () in
    let outcomes =
      Harness.Report.run_all ~pool:(pool pool_size) ctx
    in
    (Harness.Report.render_all outcomes, Harness.Report.summary_line outcomes)
  in
  let serial_report, serial_summary = render 1 in
  let par_report, par_summary = render 4 in
  Alcotest.(check string) "summary identical" serial_summary par_summary;
  Alcotest.(check string) "report byte-identical" serial_report par_report

let tests =
  ( "parallel",
    [ Alcotest.test_case "parallel_for covers range" `Quick
        test_parallel_for_covers_range;
      Alcotest.test_case "map_list order" `Quick test_map_list_order;
      Alcotest.test_case "nested regions" `Quick test_nested_regions;
      Alcotest.test_case "exception propagation" `Quick
        test_exception_propagation;
      Alcotest.test_case "pairlist cell path active" `Quick
        test_pairlist_cells_active;
      Alcotest.test_case "pairlist build equivalence" `Quick
        test_pairlist_build_equivalence;
      Alcotest.test_case "pairlist rebuild cadence invariant" `Slow
        test_pairlist_rebuild_cadence_invariant;
      Alcotest.test_case "run_all byte-identical" `Slow
        test_run_all_byte_identical ] )
