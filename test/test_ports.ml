(* Integration tests across the architecture ports: physics agreement
   between precisions and devices, and timing-model sanity. *)

module System = Mdcore.System
module Init = Mdcore.Init
module Forces = Mdcore.Forces
module Verlet = Mdcore.Verlet
module Cell = Mdports.Cell_port
module Gpu = Mdports.Gpu_port
module Mta = Mdports.Mta_port
module Opteron = Mdports.Opteron_port
module F32k = Mdports.F32_kernel
module Rr = Mdports.Run_result
module Pairlist = Mdcore.Pairlist
module Gm = Gpustream.Machine
module Vec4f = Vecmath.Vec4f
module F32 = Sim_util.F32

let sys ?(n = 128) () = Init.build ~seed:31 ~n ()

let steps = 3

(* ---------------- F32 kernel ---------------- *)

let test_f32_kernel_params_rounded () =
  let p = F32k.of_system (sys ()) in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " is binary32") true (Sim_util.F32.is_f32 v))
    [ ("box", p.F32k.box); ("half_box", p.F32k.half_box);
      ("rc2", p.F32k.rc2); ("sigma2", p.F32k.sigma2);
      ("eps24", p.F32k.eps24); ("eps4", p.F32k.eps4) ]

let test_f32_pair_terms_cutoff () =
  let p = F32k.of_system (sys ()) in
  Alcotest.(check bool) "outside cutoff" true
    (F32k.pair_terms p (p.F32k.rc2 +. 1.0) = None);
  Alcotest.(check bool) "zero distance excluded" true
    (F32k.pair_terms p 0.0 = None);
  Alcotest.(check bool) "inside interacts" true
    (F32k.pair_terms p 1.0 <> None)

(* The reference for [F32k.gather]: [min_image], [r2] and [pair_terms]
   per partner, summed with [F32] adds in partner order. *)
let f32_reference p
    ((px, py, pz) : System.f32buf * System.f32buf * System.f32buf) partners i =
  let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 and pe = ref 0.0 in
  let hits = ref 0 in
  Array.iter
    (fun j ->
      let dx = F32k.min_image p (F32.sub px.{i} px.{j})
      and dy = F32k.min_image p (F32.sub py.{i} py.{j})
      and dz = F32k.min_image p (F32.sub pz.{i} pz.{j}) in
      match F32k.pair_terms p (F32k.r2 p ~dx ~dy ~dz) with
      | Some (coeff, e) ->
        ax := F32.add !ax (F32.mul coeff dx);
        ay := F32.add !ay (F32.mul coeff dy);
        az := F32.add !az (F32.mul coeff dz);
        pe := F32.add !pe e;
        incr hits
      | None -> ())
    partners;
  (!ax, !ay, !az, !pe, !hits)

let row_starts rows =
  let starts = Array.make (Array.length rows) 0 in
  for i = 1 to Array.length rows - 1 do
    starts.(i) <- starts.(i - 1) + Array.length rows.(i - 1)
  done;
  starts

(* Every source and partner set of the binary32 gather matches the
   reference bit for bit: the N² sweep against all j <> i (the
   reference skips the self pair the loop leaves to its r2 > 0 test),
   and the full list rows; from the staged streams (Cell) and from
   float4 texels inside a shader dispatch (GPU). *)
let test_f32_gather_matches_pair_terms () =
  List.iter
    (fun (name, base, skin) ->
      let s = System.copy base in
      let n = s.System.n in
      let p = F32k.of_system s in
      let ((px, py, pz) as staged) = System.stage_positions_f32 s in
      let pl = Pairlist.create ~skin s in
      Pairlist.force_rebuild pl;
      let rows = Pairlist.full_rows pl in
      let expect partners =
        Array.init n (fun i -> f32_reference p staged (partners i) i)
      in
      let all_but i =
        Array.init (n - 1) (fun k -> if k < i then k else k + 1)
      in
      let cases =
        [ ("all", F32k.All n, expect all_but);
          ("rows", F32k.Rows rows, expect (Array.get rows)) ]
      in
      let acc = F32k.acc () in
      let check what i (ax, ay, az, pe, hits) h =
        let same = Test_mdcore.same_bits in
        if not (h = hits && same acc.F32k.ax ax && same acc.F32k.ay ay
                && same acc.F32k.az az && same acc.F32k.pe pe)
        then Alcotest.failf "%s, %s: row %d differs from the reference" name
            what i
      in
      List.iter
        (fun (what, partners, expect) ->
          for i = 0 to n - 1 do
            let h = F32k.gather p acc (F32k.Staged (px, py, pz)) partners i in
            check ("staged " ^ what) i expect.(i) h
          done)
        cases;
      let m = Gm.create Gpustream.Config.geforce_7900gtx in
      let positions = Gm.create_texture m ~name:"positions" ~texels:n in
      Gm.upload m positions
        (Array.init n (fun i -> Vec4f.make px.{i} py.{i} pz.{i} 0.0));
      let descriptors = Gm.create_texture m ~name:"rows" ~texels:n in
      let indices =
        Gm.create_texture m ~name:"indices"
          ~texels:(max 1 ((Pairlist.full_entry_count pl + 3) / 4))
      in
      let target = Gm.create_render_target m ~name:"out" ~texels:n in
      let shader =
        Gm.compile m ~name:"gather" ~body:Mdports.Kernels.gpu_candidate
          ~prologue:Mdports.Kernels.gpu_fragment_prologue
      in
      let starts = row_starts rows in
      List.iter
        (fun (what, partners, expect) ->
          Gm.dispatch m shader ~inputs:[ positions; descriptors; indices ]
            ~target
            ~f:(fun sampler i ->
              let src = F32k.Texture (sampler, starts) in
              let h = F32k.gather p acc src partners i in
              check ("texture " ^ what) i expect.(i) h;
              Vec4f.zero)
            ())
        cases)
    (Test_mdcore.bitwise_systems ())

(* Allocation guard for the force, integration and memory-replay loops.
   On a 2048-atom system with its list already built, one evaluation of
   each may grow the minor heap by a few words per atom (per-fragment
   descriptors) but not per list entry (about 170k here): a closure,
   boxed float or per-pair option back in one of these loops fails it.
   The replay sweep is measured as the growth from 1 to 2048 atoms,
   which cancels the cache model's fixed set-up. *)
let test_hot_loops_allocation_free () =
  let n = 2048 in
  let pool = Mdpar.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Mdpar.shutdown pool) (fun () ->
      let s = Init.build ~seed:3 ~n () in
      let pl = Pairlist.create ~pool s in
      Pairlist.force_rebuild pl;
      let rows = Pairlist.full_rows pl in
      let newton3 = (Pairlist.engine pl).Mdcore.Engine.compute in
      ignore (newton3 s);
      let p = F32k.of_system s in
      let px, py, pz = System.stage_positions_f32 s in
      let acc = F32k.acc () in
      let staged = F32k.Staged (px, py, pz) and partners = F32k.Rows rows in
      let m = Gm.create Gpustream.Config.geforce_7900gtx in
      let positions = Gm.create_texture m ~name:"positions" ~texels:n in
      Gm.upload m positions
        (Array.init n (fun i -> Vec4f.make px.{i} py.{i} pz.{i} 0.0));
      let inputs =
        [ positions;
          Gm.create_texture m ~name:"rows" ~texels:n;
          Gm.create_texture m ~name:"indices"
            ~texels:((Pairlist.full_entry_count pl + 3) / 4) ]
      in
      let target = Gm.create_render_target m ~name:"out" ~texels:n in
      let shader =
        Gm.compile m ~name:"gather" ~body:Mdports.Kernels.gpu_candidate
          ~prologue:Mdports.Kernels.gpu_fragment_prologue
      in
      let starts = row_starts rows in
      let f32_engine = (Cell.apply_f32_engine s).Mdcore.Engine.compute in
      let no_force = Mdcore.Engine.make ~name:"none" ~compute:(fun _ -> 0.0) in
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let replay atoms () =
        ignore (Opteron.memory_excess_cycles_per_pair ~n:atoms ())
      in
      List.iter
        (fun (name, w) ->
          if w > 8.0 *. float_of_int n then
            Alcotest.failf "%s allocated %.0f minor words (> 8 per atom)"
              name w)
        [ ("cell f32 rows",
           words (fun () ->
               for i = 0 to n - 1 do
                 ignore (F32k.gather p acc staged partners i)
               done));
          ("cell f32 engine (N^2)", words (fun () -> ignore (f32_engine s)));
          ("gpu fragments",
           words (fun () ->
               Gm.dispatch m shader ~inputs ~target
                 ~f:(fun sampler i ->
                   let src = F32k.Texture (sampler, starts) in
                   ignore (F32k.gather p acc src partners i);
                   Vec4f.zero)
                 ()));
          ("pairlist compute_full_stats",
           words (fun () -> ignore (Pairlist.compute_full_stats pl s)));
          ("pairlist Newton-3", words (fun () -> ignore (newton3 s)));
          ("verlet step (kicks and drift)",
           words (fun () -> ignore (Verlet.step s ~engine:no_force)));
          ("opteron memory replay", words (replay n) -. words (replay 1)) ])

(* The same guard for the pooled row loops, on default pools of 1 and 2
   domains: the Cell binary32 engine and a pooled GPU dispatch
   (fragments take their accumulator per domain).  The first evaluation
   sizes the per-run buffers; a repeat evaluation must stay within 8
   minor words per atom on the calling domain and allocate no n-sized
   array (which would bypass the minor heap, so it is read as major
   words not promoted from it). *)
let test_pooled_loops_allocation_free () =
  let n = 2048 in
  let s = Init.build ~seed:3 ~n () in
  let pl = Pairlist.create s in
  Pairlist.force_rebuild pl;
  let rows = Pairlist.full_rows pl in
  let p = F32k.of_system s in
  let px, py, pz = System.stage_positions_f32 s in
  let m = Gm.create Gpustream.Config.geforce_7900gtx in
  let positions = Gm.create_texture m ~name:"positions" ~texels:n in
  Gm.upload m positions
    (Array.init n (fun i -> Vec4f.make px.{i} py.{i} pz.{i} 0.0));
  let inputs =
    [ positions;
      Gm.create_texture m ~name:"rows" ~texels:n;
      Gm.create_texture m ~name:"indices"
        ~texels:((Pairlist.full_entry_count pl + 3) / 4) ]
  in
  let target = Gm.create_render_target m ~name:"out" ~texels:n in
  let shader =
    Gm.compile m ~name:"gather" ~body:Mdports.Kernels.gpu_candidate
      ~prologue:Mdports.Kernels.gpu_fragment_prologue
  in
  let starts = row_starts rows and partners = F32k.Rows rows in
  let acc = Domain.DLS.new_key F32k.acc in
  let f32_engine = (Cell.apply_f32_engine s).Mdcore.Engine.compute in
  let alloc f =
    let minor0, promoted0, major0 = Gc.counters () in
    f ();
    let minor1, promoted1, major1 = Gc.counters () in
    (minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0))
  in
  List.iter
    (fun domains ->
      Test_mdcore.with_default_domains domains (fun () ->
          let pool = Mdpar.get () in
          List.iter
            (fun (name, f) ->
              let name = Printf.sprintf "%s, %d domains" name domains in
              f ();
              let minor, direct = alloc f in
              if minor > 8.0 *. float_of_int n then
                Alcotest.failf "%s allocated %.0f minor words (> 8 per atom)"
                  name minor;
              if direct >= float_of_int n then
                Alcotest.failf "%s allocated %.0f words outside the minor heap"
                  name direct)
            [ ("cell f32 engine (N^2)", fun () -> ignore (f32_engine s));
              ("gpu fragments",
               fun () ->
                 Gm.dispatch m shader ~inputs ~target ~pool
                   ~f:(fun sampler i ->
                     let src = F32k.Texture (sampler, starts) in
                     ignore
                       (F32k.gather p (Domain.DLS.get acc) src partners i);
                     Vec4f.zero)
                   ()) ]))
    [ 1; 2 ]

(* Every bit a port run leaves behind, as strings: per-step records,
   the final SoA buffers, the metrics document and the virtual counter
   export. *)
let run_bits run s =
  Mdprof.clear ();
  Mdprof.enable ();
  Fun.protect ~finally:Mdprof.clear (fun () ->
      let r = run s in
      let bits xs =
        String.concat " "
          (List.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs)
      in
      let records =
        String.concat "\n"
          (List.map
             (fun (rc : Verlet.step_record) ->
               Printf.sprintf "%d %s" rc.Verlet.step
                 (bits
                    [ rc.Verlet.sim_time; rc.Verlet.pe; rc.Verlet.ke;
                      rc.Verlet.total_energy; rc.Verlet.temperature ]))
             r.Rr.records)
      in
      let f = Option.get r.Rr.final_system in
      let soa =
        String.concat "\n"
          (List.map
             (fun (b : System.buf) ->
               bits (List.init f.System.n (fun i -> b.{i})))
             System.[ f.pos_x; f.pos_y; f.pos_z; f.vel_x; f.vel_y; f.vel_z;
                      f.acc_x; f.acc_y; f.acc_z ])
      in
      let fetches =
        match Mdprof.find "gpu/texture_fetches" with
        | Some x -> Printf.sprintf "%.0f" x.Mdprof.s_value
        | None -> "none"
      in
      [ ("records", records); ("final SoA", soa);
        ("metrics", Rr.metrics_json r); ("counters", Mdprof.to_json ());
        ("texture fetches", fetches) ])

let check_same_bits name reference candidate =
  List.iter2
    (fun (what, a) (_, b) ->
      if not (String.equal a b) then Alcotest.failf "%s: %s differ" name what)
    reference candidate

(* The ports whose host physics runs row-parallel on the default pool
   must leave the same bits at 1, 2 and 4 domains: Cell on both force
   paths, GPU with both PE strategies (the reduction shader stays
   serial) and MTA in both modes. *)
let test_gather_ports_pool_invariant () =
  let steps = 2 in
  let ports =
    [ ("cell pairlist", fun s -> Cell.run ~steps s);
      ("cell brute",
       fun s -> Cell.run ~steps ~force_path:Mdports.Force_path.brute s);
      ("gpu readback", fun s -> Gpu.run ~steps s);
      ("gpu reduction", fun s -> Gpu.run ~steps ~pe_strategy:Gpu.Gpu_reduction s);
      ("mta fully", fun s -> Mta.run ~steps s);
      ("mta partially",
       fun s -> Mta.run ~steps ~mode:Mta.Partially_multithreaded s) ]
  in
  List.iter
    (fun n ->
      let s = Init.build ~seed:23 ~n () in
      List.iter
        (fun (name, run) ->
          let at domains =
            Test_mdcore.with_default_domains domains (fun () -> run_bits run s)
          in
          let serial = at 1 in
          if String.starts_with ~prefix:"gpu" name then
            Alcotest.(check bool)
              (name ^ ": texture fetches counted") true
              (List.assoc "texture fetches" serial <> "none");
          List.iter
            (fun domains ->
              check_same_bits
                (Printf.sprintf "%s, n=%d, 1 vs %d domains" name n domains)
                serial (at domains))
            [ 2; 4 ])
        ports)
    [ 864; 2048 ];
  (* The runs above sum row PEs whose double-precision sum is exact, so
     the order of the Cell rows' PE fold cannot show in them.  With
     atoms jittered into overlap (PE about 1e13) the sum rounds, and
     only a fold in row order matches a serial loop over the rows. *)
  let s = Init.build ~seed:23 ~n:864 () in
  Init.jitter_positions s ~magnitude:0.6 (Sim_util.Rng.create 17);
  let n = s.System.n in
  let bits_of (s : System.t) pe =
    Int64.to_string (Int64.bits_of_float pe)
    :: List.concat_map
         (fun (b : System.buf) ->
           List.init n (fun i -> Int64.to_string (Int64.bits_of_float b.{i})))
         System.[ s.acc_x; s.acc_y; s.acc_z ]
  in
  let serial =
    let s = System.copy s in
    let p = F32k.of_system s in
    let px, py, pz = System.stage_positions_f32 s in
    let acc = F32k.acc () and pe2 = ref 0.0 in
    for i = 0 to n - 1 do
      ignore (F32k.gather p acc (F32k.Staged (px, py, pz)) (F32k.All n) i);
      s.System.acc_x.{i} <- acc.F32k.ax;
      s.System.acc_y.{i} <- acc.F32k.ay;
      s.System.acc_z.{i} <- acc.F32k.az;
      pe2 := !pe2 +. acc.F32k.pe
    done;
    bits_of s (0.5 *. !pe2)
  in
  List.iter
    (fun domains ->
      Test_mdcore.with_default_domains domains (fun () ->
          let s = System.copy s in
          let pe = (Cell.apply_f32_engine s).Mdcore.Engine.compute s in
          if bits_of s pe <> serial then
            Alcotest.failf
              "cell f32 engine, overlapping atoms, %d domains: not the \
               serial loop's bits"
              domains))
    [ 1; 2; 4 ]

(* With a live texture fault stream the GPU dispatch stays serial in
   texel order, so the same texels flip at any pool size. *)
let test_gpu_texture_faults_replay_across_pools () =
  let s = Init.build ~seed:23 ~n:864 () in
  let run domains =
    Test_mdcore.with_default_domains domains (fun () ->
        match Mdfault.parse_spec "gpu-texture:1e-5,seed=3" with
        | Error msg -> Alcotest.fail msg
        | Ok spec ->
          Mdfault.install spec;
          Fun.protect ~finally:Mdfault.uninstall (fun () ->
              let bits = run_bits (fun s -> Gpu.run ~steps:2 s) s in
              (bits, Mdfault.events_string (),
               (Mdfault.summary ()).Mdfault.injected)))
  in
  let bits1, log1, injected = run 1 in
  let bits4, log4, _ = run 4 in
  Alcotest.(check bool) "texture faults fired" true (injected > 0);
  Alcotest.(check string) "same fault log" log1 log4;
  check_same_bits "gpu with texture faults, 1 vs 4 domains" bits1 bits4

(* ---------------- The native row kernel ---------------- *)

let f32_succ x = Int32.float_of_bits (Int32.succ (Int32.bits_of_float x))
let f32_pred x = Int32.float_of_bits (Int32.pred (Int32.bits_of_float x))

let staged_of_list coords : System.f32buf * System.f32buf * System.f32buf =
  let n = List.length coords in
  let px = System.create_f32buf n
  and py = System.create_f32buf n
  and pz = System.create_f32buf n in
  List.iteri
    (fun i (x, y, z) ->
      px.{i} <- x;
      py.{i} <- y;
      pz.{i} <- z)
    coords;
  (px, py, pz)

(* A GPU with the three textures the list shader binds: positions
   (input 0), [descriptors] row descriptors (input 1, default one per
   atom) and [index_texels] packed index texels (input 2).  Applied to
   [f], it runs one serial dispatch calling [f sampler i] per row. *)
let texture_rig ?(index_texels = 1) ?descriptors (px, py, pz) =
  let n = Bigarray.Array1.dim px in
  let m = Gm.create Gpustream.Config.geforce_7900gtx in
  let positions = Gm.create_texture m ~name:"positions" ~texels:n in
  Gm.upload m positions
    (Array.init n (fun i -> Vec4f.make px.{i} py.{i} pz.{i} 0.0));
  let descriptors = Option.value descriptors ~default:n in
  let inputs =
    [ positions;
      Gm.create_texture m ~name:"rows" ~texels:descriptors;
      Gm.create_texture m ~name:"indices" ~texels:index_texels ]
  in
  let target = Gm.create_render_target m ~name:"out" ~texels:n in
  let shader =
    Gm.compile m ~name:"gather" ~body:Mdports.Kernels.gpu_candidate
      ~prologue:Mdports.Kernels.gpu_fragment_prologue
  in
  fun f ->
    Gm.dispatch m shader ~inputs ~target
      ~f:(fun sampler i ->
        f sampler i;
        Vec4f.zero)
      ()

(* Every row of [partners] through the kernel, from the staged streams
   and from position texels, equals the reference bit for bit (NaN and
   infinite sums included); returns the rows' hit counts. *)
let kernel_matches_reference name p staged partners =
  let px, py, pz = staged in
  let n = Bigarray.Array1.dim px in
  let row i =
    match partners with
    | F32k.All n -> Array.init n Fun.id
    | F32k.Rows rows -> rows.(i)
  in
  let expect = Array.init n (fun i -> f32_reference p staged (row i) i) in
  let acc = F32k.acc () in
  let check what i h =
    let ax, ay, az, pe, hits = expect.(i) in
    let same = Test_mdcore.same_bits in
    if not (h = hits && same acc.F32k.ax ax && same acc.F32k.ay ay
            && same acc.F32k.az az && same acc.F32k.pe pe)
    then
      Alcotest.failf "%s, %s: row %d gives %d hits (%h %h %h %h), reference \
                      %d (%h %h %h %h)"
        name what i h acc.F32k.ax acc.F32k.ay acc.F32k.az acc.F32k.pe hits
        ax ay az pe
  in
  let src = F32k.Staged (px, py, pz) in
  for i = 0 to n - 1 do
    check "staged" i (F32k.gather p acc src partners i)
  done;
  let rows = match partners with F32k.Rows r -> r | F32k.All _ -> [||] in
  let entries = Array.fold_left (fun a r -> a + Array.length r) 0 rows in
  let starts = row_starts rows in
  texture_rig ~index_texels:(max 1 ((entries + 3) / 4)) staged
    (fun sampler i ->
      check "texture" i
        (F32k.gather p acc (F32k.Texture (sampler, starts)) partners i));
  Array.map (fun (_, _, _, _, hits) -> hits) expect

(* Adversarial binary32 inputs for the native row kernel, against the
   [min_image]/[r2]/[pair_terms] reference.  The edge set puts three
   coincident atoms (r2 = 0) at one point, each with a one-entry row to
   a partner at r2 one ulp below rc2, exactly rc2, and one ulp above;
   atoms at 0, one binary32 ulp below the box on every axis, and at
   [Float.pred box] staged to binary32 (which rounds up to the box; the
   minimum-image selects); and a pair 1e-4 apart, whose s12 overflows
   to infinity and whose zero x difference turns the x sum into NaN.
   Rows cover lengths 0, 1 and n - 1.  The jittered set is atoms pushed
   into overlap, as in the pool test above, with the full N² rows. *)
let test_f32_kernel_adversarial () =
  let base = sys () in
  let p = F32k.of_system base in
  let box = p.F32k.box in
  let top = f32_pred box in
  let x0 = F32.round (0.3 *. box)
  and y0 = F32.round (0.4 *. box)
  and z0 = F32.round (0.5 *. box) in
  let r2_to (x, y, z) =
    F32k.r2 p
      ~dx:(F32k.min_image p (F32.sub x0 x))
      ~dy:(F32k.min_image p (F32.sub y0 y))
      ~dz:(F32k.min_image p (F32.sub z0 z))
  in
  (* a partner of (x0, y0, z0) at exactly [target]: step x by ulps
     around the cutoff and y by multiples of 2^-13 (exact sums) *)
  let at target =
    let rec step f x k = if k = 0 then x else step f (f x) (k - 1) in
    let x_low = step f32_pred (F32.round (x0 +. sqrt p.F32k.rc2)) 32 in
    let found = ref None in
    for k = 0 to 64 do
      for m = 0 to 32 do
        let c =
          (step f32_succ x_low k,
           F32.add y0 (Float.ldexp (float_of_int m) (-13)), z0)
        in
        if !found = None && r2_to c = target then found := Some c
      done
    done;
    match !found with
    | Some c -> c
    | None -> Alcotest.failf "no partner at r2 = %h" target
  in
  let rc2 = p.F32k.rc2 in
  let close = F32.add x0 1e-4 in
  let staged_top = F32.round (Float.pred base.System.box) in
  let edge =
    [ (x0, y0, z0); (x0, y0, z0); (x0, y0, z0);
      at (f32_pred rc2); at rc2; at (f32_succ rc2);
      (0.0, 0.0, 0.0); (top, top, top); (0.0, top, 0.0); (top, 0.0, top);
      (x0, 0.0, top); (0.0, y0, top); (staged_top, staged_top, 0.0);
      (close, y0, z0); (close, F32.add y0 1e-4, z0) ]
  in
  let ((ex, ey, ez) as edge_staged) = staged_of_list edge in
  let n = List.length edge in
  let all_but i = Array.of_list (List.filter (( <> ) i) (List.init n Fun.id)) in
  let rows =
    Array.init n (fun i ->
        match i with
        | 0 -> [| 3 |]
        | 1 -> [| 4 |]
        | 2 -> [| 5 |]
        | 6 -> [||]
        | 7 -> [| 6 |]
        | _ -> all_but i)
  in
  let hits = kernel_matches_reference "edge rows" p edge_staged (F32k.Rows rows) in
  Alcotest.(check (list int)) "one ulp below rc2 interacts, rc2 and above do not"
    [ 1; 0; 0 ] [ hits.(0); hits.(1); hits.(2) ];
  ignore (kernel_matches_reference "edge N²" p edge_staged (F32k.All n));
  let acc = F32k.acc () in
  ignore (F32k.gather p acc (F32k.Staged (ex, ey, ez)) (F32k.Rows rows) 13);
  Alcotest.(check bool) "overflowing pair: x sum is NaN" true
    (Float.is_nan acc.F32k.ax);
  let s = System.copy base in
  Init.jitter_positions s ~magnitude:0.6 (Sim_util.Rng.create 17);
  ignore
    (kernel_matches_reference "jittered N²" p (System.stage_positions_f32 s)
       (F32k.All s.System.n))

(* The kernel reads no position outside its store: an out-of-range own
   index, list partner, N² sweep length, row descriptor or index texel
   raises [Invalid_argument], from the staged streams and from texels,
   as the per-fetch OCaml loop did. *)
let test_f32_kernel_rejects_out_of_range () =
  let s = sys () in
  let n = s.System.n in
  let p = F32k.of_system s in
  let ((px, py, pz) as staged) = System.stage_positions_f32 s in
  let acc = F32k.acc () in
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
  in
  let rows_with partner = Array.init n (fun _ -> [| 1; partner |]) in
  let staged_cases =
    [ ("own index", F32k.All n, n);
      ("negative own index", F32k.All n, -1);
      ("sweep past the store", F32k.All (n + 1), 0);
      ("partner past the store", F32k.Rows (rows_with n), 0);
      ("negative partner", F32k.Rows (rows_with (-1)), 0) ]
  in
  List.iter
    (fun (what, partners, i) ->
      raises ("staged, " ^ what) (fun () ->
          F32k.gather p acc (F32k.Staged (px, py, pz)) partners i))
    staged_cases;
  let entries = 2 * n in
  let texture what ?index_texels ?descriptors partners starts i =
    raises ("texture, " ^ what) (fun () ->
        texture_rig
          ~index_texels:(Option.value index_texels ~default:((entries + 3) / 4))
          ?descriptors staged
          (fun sampler _ ->
            ignore
              (F32k.gather p acc (F32k.Texture (sampler, starts)) partners i)))
  in
  let starts = Array.init n (fun i -> 2 * i) in
  List.iter
    (fun (what, partners, i) -> texture what partners starts i)
    staged_cases;
  texture "row descriptor" ~descriptors:1 (F32k.Rows (rows_with 2)) starts 1;
  texture "index texel" ~index_texels:1 (F32k.Rows (rows_with 2)) starts 4

(* A live texture fault stream that never fires takes the fetch-by-fetch
   OCaml row; an inert one takes the native kernel with the closed-form
   fetch count.  Both must leave the same bits — sums, trajectories,
   metrics, counters and [gpu/texture_fetches] — on the list rows and on
   the N² sweep. *)
let test_gpu_quiet_live_stream_matches_inert () =
  let s = Init.build ~seed:23 ~n:864 () in
  List.iter
    (fun (name, force_path) ->
      let run () = run_bits (fun s -> Gpu.run ~steps:2 ~force_path s) s in
      let inert = run () in
      let live =
        match Mdfault.parse_spec "gpu-texture:1e-300,seed=3" with
        | Error msg -> Alcotest.fail msg
        | Ok spec ->
          Mdfault.install spec;
          Fun.protect ~finally:Mdfault.uninstall (fun () ->
              Alcotest.(check bool) "stream live" false
                (Mdfault.inert (Mdfault.stream Mdfault.Gpu_texture "probe"));
              let bits = run () in
              Alcotest.(check int) "nothing injected" 0
                (Mdfault.summary ()).Mdfault.injected;
              bits)
      in
      check_same_bits (name ^ ": quiet live stream vs inert") inert live)
    [ ("rows", Mdports.Force_path.default);
      ("N²", Mdports.Force_path.brute) ]

let test_f32_matches_double_reference () =
  let s_ref = sys () in
  let s_f32 = System.copy s_ref in
  let pe_ref = Forces.compute_gather s_ref in
  let pe_f32 =
    (Cell.apply_f32_engine s_f32).Mdcore.Engine.compute s_f32
  in
  Alcotest.(check bool) "PE within f32 tolerance" true
    (abs_float (pe_ref -. pe_f32) < 1e-3 *. abs_float pe_ref);
  Alcotest.(check bool) "accelerations within f32 tolerance" true
    (System.max_acceleration_delta s_ref s_f32 < 0.05)

(* ---------------- Opteron port ---------------- *)

let test_opteron_physics_is_reference () =
  let s = sys () in
  let result = Opteron.run ~steps s in
  let s2 = System.copy s in
  let records = Verlet.run s2 ~engine:Forces.gather_engine ~steps () in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-9)) "identical trajectory energies"
        a.Verlet.total_energy b.Verlet.total_energy)
    result.Rr.records records

let test_opteron_counts () =
  let n = 128 in
  let result = Opteron.run ~steps (sys ~n ()) in
  Alcotest.(check int) "pairs = (steps+1) * n(n-1)"
    ((steps + 1) * n * (n - 1))
    result.Rr.pairs_evaluated;
  Alcotest.(check bool) "some interactions" true (result.Rr.interactions > 0)

let test_opteron_breakdown_sums () =
  let result = Opteron.run ~steps (sys ()) in
  let total =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 result.Rr.breakdown
  in
  Alcotest.(check (float 1e-12)) "compute+memory = total" result.Rr.seconds
    total

let test_opteron_memory_excess_grows () =
  let small = Opteron.memory_excess_cycles_per_pair ~n:256 () in
  let large = Opteron.memory_excess_cycles_per_pair ~n:4096 () in
  Alcotest.(check bool)
    (Printf.sprintf "excess grows: %.3f -> %.3f cyc/pair" small large)
    true (large > small +. 0.5)

(* What drives Fig. 9's top point.  The SoA arrays sit back to back at
   64-byte alignment, so at N = 4095 and 4096 each position array spans
   32 KB, the way size of the 64 KB 2-way L1: x[j], y[j] and z[j] map to
   one set and every access misses L1.  On either side the three
   position arrays (96 KB) have merely outgrown the L1, and the stall is
   a capacity one, an order of magnitude smaller.  A layout change that
   moves any of these values moves Fig. 9. *)
let test_opteron_memory_excess_pinned () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "stall cycles per pair at N = %d" n)
        expected
        (Opteron.memory_excess_cycles_per_pair ~n ()))
    [ (2048, 0.0); (4000, 4.284); (4095, 36.0); (4096, 36.0);
      (4097, 4.507688552599463) ]

let test_opteron_runtime_superquadratic_shape () =
  (* The defining Fig. 9 behaviour at model scale. *)
  let t1 =
    Opteron.seconds_for ~steps ~force_path:Mdports.Force_path.brute ~n:128 ()
  in
  let t2 =
    Opteron.seconds_for ~steps ~force_path:Mdports.Force_path.brute ~n:256 ()
  in
  Alcotest.(check bool) "quadrupling work at least triples time" true
    (t2 /. t1 > 3.0)

(* ---------------- Cell port ---------------- *)

let shared_profile = lazy (Cell.profile_run ~steps (sys ()))

let test_cell_profile_records_match_f32_run () =
  let profile = Lazy.force shared_profile in
  let s = sys () in
  let s2 = System.copy s in
  let records =
    Verlet.run s2 ~engine:(Cell.apply_f32_engine s2) ~steps ()
  in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-9)) "profile energies = f32 engine"
        a.Verlet.total_energy b.Verlet.total_energy)
    (Cell.profile_records profile)
    records

let test_cell_more_spes_faster () =
  let profile = Lazy.force shared_profile in
  (* Compare the offloaded computation itself; at this tiny test size the
     total is dominated by launch costs, which is Fig. 6's subject. *)
  let t spes =
    Cell.accel_seconds
      (Cell.time_with profile { Cell.default_config with n_spes = spes })
  in
  let times = List.map t [ 1; 2; 4; 8 ] in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in SPE count" true (decreasing times)

let test_cell_respawn_slower_than_persistent () =
  let profile = Lazy.force shared_profile in
  let t launch =
    (Cell.time_with profile { Cell.default_config with launch }).Rr.seconds
  in
  Alcotest.(check bool) "respawn costs more" true
    (t Cell.Respawn > t Cell.Persistent)

let test_cell_variant_ordering () =
  let profile = Lazy.force shared_profile in
  let t variant =
    Cell.accel_seconds
      (Cell.time_with profile
         { Cell.default_config with n_spes = 1; variant })
  in
  let times = List.map t Mdports.Cell_variant.all in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ladder monotone" true (nonincreasing times)

let test_cell_breakdown_sums () =
  let profile = Lazy.force shared_profile in
  let r = Cell.time_with profile Cell.default_config in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Rr.breakdown in
  Alcotest.(check (float 1e-12)) "ledger total = runtime" r.Rr.seconds total

let test_cell_spes_validation () =
  let profile = Lazy.force shared_profile in
  Alcotest.(check bool) "9 SPEs rejected" true
    (try
       ignore (Cell.time_with profile { Cell.default_config with n_spes = 9 });
       false
     with Invalid_argument _ -> true)

let test_cell_tiled_staging () =
  (* Force the LS tile smaller than the system: more DMA requests, same
     compute, identical results otherwise. *)
  let profile = Lazy.force shared_profile in
  let untiled = Cell.time_with profile Cell.default_config in
  let tiled = Cell.time_with ~j_chunk:16 profile Cell.default_config in
  Alcotest.(check bool) "tiled staging costs more DMA time" true
    (Rr.breakdown_get tiled "dma" > Rr.breakdown_get untiled "dma");
  Alcotest.(check (float 1e-12)) "compute unchanged"
    (Rr.breakdown_get untiled "compute")
    (Rr.breakdown_get tiled "compute")

let test_cell_ppe_only_slower () =
  let profile = Lazy.force shared_profile in
  let ppe = Cell.time_ppe_only profile in
  let one_spe =
    Cell.accel_seconds
      (Cell.time_with profile { Cell.default_config with n_spes = 1 })
  in
  Alcotest.(check bool) "PPE only much slower than one SPE's compute" true
    (ppe.Rr.seconds > 3.0 *. one_spe)

let test_cell_energy_drift_reasonable () =
  let profile = Lazy.force shared_profile in
  let r = Cell.time_with profile Cell.default_config in
  Alcotest.(check bool) "single precision still conserves roughly" true
    (Rr.energy_drift r < 0.05)

let test_cell_double_precision () =
  let s = sys () in
  let dp_profile = Cell.profile_run ~steps ~precision:Cell.Double s in
  (* DP physics is exactly the double-precision reference. *)
  let opt = Opteron.run ~steps s in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-9)) "dp physics = reference"
        a.Verlet.total_energy b.Verlet.total_energy)
    (Cell.profile_records dp_profile)
    opt.Rr.records;
  (* DP compute slower than SP compute on the same workload. *)
  let sp_profile = Lazy.force shared_profile in
  let accel profile =
    Cell.accel_seconds
      (Cell.time_with profile { Cell.default_config with n_spes = 1 })
  in
  Alcotest.(check bool) "dp compute slower" true
    (accel dp_profile > accel sp_profile)

let test_cell_dp_profile_precision () =
  let s = sys () in
  let p = Cell.profile_run ~steps ~precision:Cell.Double s in
  Alcotest.(check bool) "precision recorded" true
    (Cell.profile_precision p = Cell.Double)

(* ---------------- GPU port ---------------- *)

let test_gpu_physics_close_to_reference () =
  let s = sys () in
  let gpu = Gpu.run ~steps s in
  let opt = Opteron.run ~steps s in
  let e_gpu = Rr.final_total_energy gpu and e_opt = Rr.final_total_energy opt in
  Alcotest.(check bool)
    (Printf.sprintf "energies close: %.4f vs %.4f" e_gpu e_opt)
    true
    (abs_float (e_gpu -. e_opt) < 0.01 *. abs_float e_opt)

let test_gpu_matches_cell_f32_exactly () =
  (* Both single-precision ports share the same staged arithmetic, so
     their trajectories agree to double-precision roundoff of the
     integrator bookkeeping. *)
  let s = sys () in
  let gpu = Gpu.run ~steps s in
  let profile = Cell.profile_run ~steps s in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-6)) "f32 trajectories agree"
        a.Verlet.total_energy b.Verlet.total_energy)
    gpu.Rr.records
    (Cell.profile_records profile)

let test_gpu_setup_excluded () =
  let r = Gpu.run ~steps (sys ()) in
  Alcotest.(check bool) "setup recorded" true (Gpu.setup_seconds r > 0.0);
  let ledger_total =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Rr.breakdown
  in
  Alcotest.(check (float 1e-12)) "seconds = ledger - setup"
    (ledger_total -. Gpu.setup_seconds r)
    r.Rr.seconds

let test_gpu_per_step_bus_cost () =
  let r3 = Gpu.run ~steps:3 (sys ()) in
  let r6 = Gpu.run ~steps:6 (sys ()) in
  let upload r = Rr.breakdown_get r "upload" in
  (* steps+1 force evaluations -> 4 vs 7 uploads *)
  Alcotest.(check bool) "upload scales with steps" true
    (upload r6 > upload r3 *. 1.5)

let test_gpu_small_n_dominated_by_overheads () =
  let r = Gpu.run ~steps (sys ~n:128 ()) in
  let bus =
    Rr.breakdown_get r "upload" +. Rr.breakdown_get r "readback"
    +. Rr.breakdown_get r "dispatch"
  in
  Alcotest.(check bool) "bus+dispatch dominate at tiny N" true
    (bus > Rr.breakdown_get r "shader")

let test_gpu_reduction_same_physics_slower () =
  let s = sys () in
  let w = Gpu.run ~steps s in
  let red = Gpu.run ~steps ~pe_strategy:Gpu.Gpu_reduction s in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-4)) "same trajectory" a.Verlet.total_energy
        b.Verlet.total_energy)
    w.Rr.records red.Rr.records;
  Alcotest.(check bool) "reduction strictly slower" true
    (red.Rr.seconds > w.Rr.seconds)

(* ---------------- Opteron pairlist timing ---------------- *)

let test_opteron_pairlist_same_physics () =
  (* Pairlist physics must track the reference within list-validity
     tolerance (exact while no neighbour crosses the skin). *)
  let s = Init.build ~seed:31 ~n:216 () in
  let n2 = Opteron.run ~steps ~force_path:Mdports.Force_path.brute s in
  let pl =
    Opteron.run ~steps ~force_path:(Mdports.Force_path.pairlist ()) s
  in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-7)) "same energies" a.Verlet.total_energy
        b.Verlet.total_energy)
    n2.Rr.records pl.Rr.records

let test_opteron_pairlist_faster () =
  let s = Init.build ~seed:31 ~n:512 () in
  let n2 = Opteron.run ~steps ~force_path:Mdports.Force_path.brute s in
  let pl =
    Opteron.run ~steps ~force_path:(Mdports.Force_path.pairlist ()) s
  in
  Alcotest.(check bool)
    (Printf.sprintf "pairlist %.4f s < N^2 %.4f s" pl.Rr.seconds n2.Rr.seconds)
    true
    (pl.Rr.seconds < n2.Rr.seconds);
  Alcotest.(check bool) "and examines fewer pairs" true
    (pl.Rr.pairs_evaluated < n2.Rr.pairs_evaluated)

(* ---------------- Production pairlist path ---------------- *)

let contains_pairlist label =
  let needle = "pairlist" in
  let nl = String.length needle and ll = String.length label in
  let rec go i = i + nl <= ll && (String.sub label i nl = needle || go (i + 1)) in
  go 0

let test_default_force_path_flips () =
  (* The production default: every port takes the pairlist at admissible
     sizes and says so in its device label; the 128-atom fixture box is
     below the min-image bound and silently stays on brute N². *)
  let big = Init.build ~seed:31 ~n:512 () in
  let small = sys () in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " pairlist at 512 atoms") true
        (contains_pairlist (f big).Rr.device);
      Alcotest.(check bool) (name ^ " brute fallback at 128 atoms") false
        (contains_pairlist (f small).Rr.device))
    [ ("opteron", fun s -> Opteron.run ~steps:1 s);
      ("cell", fun s -> Cell.run ~steps:1 s);
      ("gpu", fun s -> Gpu.run ~steps:1 s);
      ("mta", fun s -> Mta.run ~steps:1 s) ]

(* The largest density whose [Init.lattice_box] still reaches [bound]
   for [n] atoms; [Float.succ] of it is the first density past the
   bound. *)
let edge_density ~n bound =
  let box rho = Init.lattice_box ~n ~density:rho in
  let rec down rho = if box rho >= bound then rho else down (Float.pred rho) in
  let rec up rho =
    if box (Float.succ rho) >= bound then up (Float.succ rho) else rho
  in
  up (down (float_of_int n /. (bound *. bound *. bound)))

(* [Force_path.setup] judges a run before anything is built; it must
   agree with the system that would be built: accept exactly when
   [Init.build] succeeds and, for an explicit pairlist, exactly when
   [Pairlist.admissible] holds on the built system.  The cases sit on
   the ulp edges of 2·rc and 2·(rc+skin), where a box computed any
   other way than [Init.lattice_box] lands on the wrong side. *)
let test_force_path_setup_matches_system () =
  let check_case (n, density) =
    let built =
      match Init.build ~n ~density () with
      | s -> Some s
      | exception Invalid_argument _ -> None
    in
    let accepted engine =
      Result.is_ok (Mdports.Force_path.setup ?engine ~n ~density ())
    in
    let label engine =
      Printf.sprintf "%s, n=%d density=%.17g"
        (Option.value engine ~default:"no engine") n density
    in
    List.iter
      (fun engine ->
        Alcotest.(check bool) (label engine) (built <> None) (accepted engine))
      [ None; Some "default"; Some "n2" ];
    let listed =
      match built with Some s -> Pairlist.admissible s | None -> false
    in
    Alcotest.(check bool) (label (Some "pairlist")) listed
      (accepted (Some "pairlist"));
    (built <> None, listed)
  in
  List.iter
    (fun case -> ignore (check_case case))
    [ (100, 0.8); (125, 1.0); (150, 0.76878920824962094) ];
  let cutoff = Mdcore.Params.default.Mdcore.Params.cutoff in
  let reach = cutoff +. Pairlist.default_skin in
  List.iter
    (fun (n, bound) ->
      let rho = edge_density ~n bound in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: density %.17g and the next one straddle %g" n
           rho bound)
        true
        (check_case (n, rho) <> check_case (n, Float.succ rho)))
    [ (100, 2.0 *. cutoff); (128, 2.0 *. cutoff);
      (150, 2.0 *. reach); (300, 2.0 *. reach) ]

let record_bits (r : Verlet.step_record) =
  ( r.Verlet.step,
    List.map Int64.bits_of_float
      [ r.Verlet.sim_time; r.Verlet.pe; r.Verlet.ke; r.Verlet.total_energy;
        r.Verlet.temperature ] )

let test_gather_ports_pairlist_bitwise () =
  (* Cell, GPU and MTA traverse the full neighbour rows with the same
     per-row ascending hit order as their N² gathers, and out-of-reach
     entries contribute exactly nothing — so flipping the engine changes
     no physics bit on these ports, in either precision.  The binary64
     Cell profile and the MTA port share one gather, so their records
     agree bit for bit on both force paths. *)
  let n = 512 in
  let check name runner =
    let pl = runner Mdports.Force_path.default in
    let n2 = runner Mdports.Force_path.brute in
    Alcotest.(check bool) (name ^ ": records bitwise") true
      (pl.Rr.records = n2.Rr.records);
    Alcotest.(check int) (name ^ ": same interactions") n2.Rr.interactions
      pl.Rr.interactions
  in
  let cell_dp force_path =
    Cell.time_with
      (Cell.profile_run ~steps ~precision:Cell.Double ~force_path
         (Init.build ~seed:31 ~n ()))
      Cell.default_config
  in
  let mta force_path = Mta.run ~steps ~force_path (Init.build ~seed:31 ~n ()) in
  check "cell" (fun force_path ->
      Cell.run ~steps ~force_path (Init.build ~seed:31 ~n ()));
  check "cell binary64" cell_dp;
  check "gpu" (fun force_path ->
      Gpu.run ~steps ~force_path (Init.build ~seed:31 ~n ()));
  check "mta" mta;
  List.iter
    (fun (path, force_path) ->
      let c = cell_dp force_path and m = mta force_path in
      Alcotest.(check bool) ("cell binary64 = mta records bitwise, " ^ path)
        true
        (List.map record_bits c.Rr.records = List.map record_bits m.Rr.records);
      Alcotest.(check int) ("cell binary64 = mta interactions, " ^ path)
        m.Rr.interactions c.Rr.interactions)
    [ ("pairlist", Mdports.Force_path.default);
      ("n2", Mdports.Force_path.brute) ]

let test_pairlist_faster_on_every_port () =
  (* The tentpole acceptance: at the largest bench size the pairlist
     path beats per-step N² on all four device models.  (At n = 512 the
     GPU's fixed per-step costs plus the host-charged rebuild scan eat
     the shader saving; the win opens up from ~1k atoms.) *)
  let n = 1024 in
  List.iter
    (fun (name, runner) ->
      let pl = runner Mdports.Force_path.default in
      let n2 = runner Mdports.Force_path.brute in
      Alcotest.(check bool)
        (Printf.sprintf "%s: pairlist %.4f s < N² %.4f s" name pl.Rr.seconds
           n2.Rr.seconds)
        true
        (pl.Rr.seconds < n2.Rr.seconds))
    [ ("opteron", fun force_path ->
          Opteron.run ~steps ~force_path (Init.build ~seed:31 ~n ()));
      ("cell", fun force_path ->
          Cell.run ~steps ~force_path (Init.build ~seed:31 ~n ()));
      ("gpu", fun force_path ->
          Gpu.run ~steps ~force_path (Init.build ~seed:31 ~n ()));
      ("mta", fun force_path ->
          Mta.run ~steps ~force_path (Init.build ~seed:31 ~n ())) ]

(* ---------------- MTA port ---------------- *)

let test_mta_physics_is_reference () =
  let s = sys () in
  let mta = Mta.run ~steps s in
  let opt = Opteron.run ~steps s in
  List.iter2
    (fun (a : Verlet.step_record) (b : Verlet.step_record) ->
      Alcotest.(check (float 1e-9)) "identical double-precision physics"
        a.Verlet.total_energy b.Verlet.total_energy)
    mta.Rr.records opt.Rr.records

let test_mta_fully_beats_partially () =
  let s = sys () in
  let full = Mta.run ~steps s in
  let partial = Mta.run ~steps ~mode:Mta.Partially_multithreaded s in
  Alcotest.(check bool) "restructured reduction wins" true
    (full.Rr.seconds < partial.Rr.seconds /. 2.0)

let test_mta_partial_serial_time () =
  let s = sys () in
  let partial = Mta.run ~steps ~mode:Mta.Partially_multithreaded s in
  Alcotest.(check bool) "serial category dominates" true
    (Rr.breakdown_get partial "serial" > 0.5 *. partial.Rr.seconds)

let test_mta_sync_charged_in_fully_mode () =
  let s = sys () in
  let full = Mta.run ~steps s in
  let partial = Mta.run ~steps ~mode:Mta.Partially_multithreaded s in
  Alcotest.(check bool) "full/empty ops appear in fully-MT mode" true
    (Rr.breakdown_get full "sync" > 0.0);
  Alcotest.(check (float 0.0)) "no sync ops in as-written kernel" 0.0
    (Rr.breakdown_get partial "sync")

let test_mta_breakdown_sums () =
  let r = Mta.run ~steps (sys ()) in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.Rr.breakdown in
  Alcotest.(check (float 1e-12)) "ledger total = runtime" r.Rr.seconds total

let test_ports_agree_on_hits () =
  (* The double-precision ports must count exactly the same interactions. *)
  let s = sys () in
  let opt = Opteron.run ~steps s in
  let mta = Mta.run ~steps s in
  Alcotest.(check int) "same interaction count" opt.Rr.interactions
    mta.Rr.interactions

let tests =
  ( "ports",
    [ Alcotest.test_case "f32 params rounded" `Quick
        test_f32_kernel_params_rounded;
      Alcotest.test_case "f32 pair terms cutoff" `Quick
        test_f32_pair_terms_cutoff;
      Alcotest.test_case "f32 matches double" `Quick
        test_f32_matches_double_reference;
      Alcotest.test_case "opteron physics = reference" `Quick
        test_opteron_physics_is_reference;
      Alcotest.test_case "opteron counts" `Quick test_opteron_counts;
      Alcotest.test_case "opteron breakdown sums" `Quick
        test_opteron_breakdown_sums;
      Alcotest.test_case "opteron memory excess grows" `Slow
        test_opteron_memory_excess_grows;
      Alcotest.test_case "opteron memory excess pinned" `Quick
        test_opteron_memory_excess_pinned;
      Alcotest.test_case "opteron superquadratic shape" `Quick
        test_opteron_runtime_superquadratic_shape;
      Alcotest.test_case "cell profile records" `Quick
        test_cell_profile_records_match_f32_run;
      Alcotest.test_case "cell more SPEs faster" `Quick
        test_cell_more_spes_faster;
      Alcotest.test_case "cell respawn slower" `Quick
        test_cell_respawn_slower_than_persistent;
      Alcotest.test_case "cell variant ordering" `Quick
        test_cell_variant_ordering;
      Alcotest.test_case "cell breakdown sums" `Quick test_cell_breakdown_sums;
      Alcotest.test_case "cell spes validation" `Quick
        test_cell_spes_validation;
      Alcotest.test_case "cell PPE-only slower" `Quick
        test_cell_ppe_only_slower;
      Alcotest.test_case "cell tiled staging" `Quick test_cell_tiled_staging;
      Alcotest.test_case "cell f32 energy drift" `Quick
        test_cell_energy_drift_reasonable;
      Alcotest.test_case "cell double precision" `Quick
        test_cell_double_precision;
      Alcotest.test_case "cell dp profile precision" `Quick
        test_cell_dp_profile_precision;
      Alcotest.test_case "gpu reduction slower, same physics" `Quick
        test_gpu_reduction_same_physics_slower;
      Alcotest.test_case "opteron pairlist physics" `Quick
        test_opteron_pairlist_same_physics;
      Alcotest.test_case "opteron pairlist faster" `Quick
        test_opteron_pairlist_faster;
      Alcotest.test_case "gpu physics close to reference" `Quick
        test_gpu_physics_close_to_reference;
      Alcotest.test_case "gpu = cell f32 exactly" `Quick
        test_gpu_matches_cell_f32_exactly;
      Alcotest.test_case "gpu setup excluded" `Quick test_gpu_setup_excluded;
      Alcotest.test_case "gpu bus cost per step" `Quick
        test_gpu_per_step_bus_cost;
      Alcotest.test_case "gpu tiny-N overhead-bound" `Quick
        test_gpu_small_n_dominated_by_overheads;
      Alcotest.test_case "mta physics = reference" `Quick
        test_mta_physics_is_reference;
      Alcotest.test_case "mta fully beats partially" `Quick
        test_mta_fully_beats_partially;
      Alcotest.test_case "mta partial serial time" `Quick
        test_mta_partial_serial_time;
      Alcotest.test_case "mta sync accounting" `Quick
        test_mta_sync_charged_in_fully_mode;
      Alcotest.test_case "mta breakdown sums" `Quick test_mta_breakdown_sums;
      Alcotest.test_case "default force path flips" `Quick
        test_default_force_path_flips;
      Alcotest.test_case "force path setup = built system" `Quick
        test_force_path_setup_matches_system;
      Alcotest.test_case "gather ports pairlist bitwise" `Quick
        test_gather_ports_pairlist_bitwise;
      Alcotest.test_case "pairlist faster on every port" `Slow
        test_pairlist_faster_on_every_port;
      Alcotest.test_case "ports agree on hits" `Quick test_ports_agree_on_hits;
      Alcotest.test_case "f32 gather = pair_terms bitwise" `Quick
        test_f32_gather_matches_pair_terms;
      Alcotest.test_case "hot loops allocation-free" `Quick
        test_hot_loops_allocation_free;
      Alcotest.test_case "pooled loops allocation-free" `Quick
        test_pooled_loops_allocation_free;
      Alcotest.test_case "gather ports pool-invariant" `Quick
        test_gather_ports_pool_invariant;
      Alcotest.test_case "gpu texture faults replay across pools" `Quick
        test_gpu_texture_faults_replay_across_pools;
      Alcotest.test_case "f32 kernel = reference, adversarial" `Quick
        test_f32_kernel_adversarial;
      Alcotest.test_case "f32 kernel rejects out-of-range" `Quick
        test_f32_kernel_rejects_out_of_range;
      Alcotest.test_case "gpu quiet live stream = inert" `Quick
        test_gpu_quiet_live_stream_matches_inert
    ] )
