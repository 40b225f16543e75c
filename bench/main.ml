(* Benchmark harness.

   Two parts, both emitted on a plain `dune exec bench/main.exe`:

   1. the full reproduction of every table and figure in the paper's
      evaluation section (virtual device time, paper scale), exactly the
      rows/series the paper reports, plus the shape checks;
   2. a bechamel microbenchmark suite: one Test.make per paper artifact
      measuring the wall-clock cost of the simulator machinery that
      regenerates it, plus ablation benches for the design choices called
      out in DESIGN.md (pairlist vs the paper's on-the-fly kernel, f32
      vs double arithmetic, branchy vs branchless search).

   Every run also writes a machine-readable artifact-name -> wall-clock-ns
   map (BENCH_results.json by default, schema mdsim-bench-v2 with run
   metadata) so perf trajectories can be tracked across commits.

   With `--check BASELINE.json` the run additionally gates against a
   committed baseline (Sim_util.Bench_check): each measured entry must
   stay within its relative tolerance of the baseline figure, and the
   process exits non-zero with a per-entry diff when any entry regresses.

   Environment knobs:
     MDSIM_BENCH_QUICK=1        use the small scale for part 1
     MDSIM_BENCH_SKIP_REPRO=1   only run the microbenchmarks
     MDSIM_BENCH_JSON=PATH      where to write the JSON results
     MDSIM_DOMAINS=N            Mdpar pool size (harness + kernels) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction                                                *)
(* ------------------------------------------------------------------ *)

let run_reproduction () =
  let quick = Sys.getenv_opt "MDSIM_BENCH_QUICK" = Some "1" in
  let scale =
    if quick then Harness.Context.quick_scale else Harness.Context.paper_scale
  in
  let ctx = Harness.Context.create ~scale () in
  let t0 = Unix.gettimeofday () in
  let outcomes = Harness.Report.run_all ctx in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  print_endline "==================================================";
  print_endline " Reproduction: every table & figure of the paper";
  print_endline "==================================================";
  print_newline ();
  print_endline (Harness.Report.render_all outcomes);
  print_endline (Harness.Report.summary_line outcomes);
  Printf.printf "reproduction wall-clock: %.3f s on %d domain(s)\n"
    (wall_ns /. 1e9)
    (Mdpar.size (Mdpar.get ()));
  wall_ns

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

(* Shared small workload (wall-clock friendly). *)
let bench_atoms = 128
let bench_system = lazy (Mdcore.Init.build ~n:bench_atoms ())
let bench_profile =
  lazy (Mdports.Cell_port.profile_run ~steps:2 (Lazy.force bench_system))

(* One Test.make per paper artifact: the simulator machinery whose output
   regenerates that artifact. *)
let test_table1 =
  Test.make ~name:"table1/cell-8spe-timing"
    (Staged.stage (fun () ->
         Mdports.Cell_port.time_with (Lazy.force bench_profile)
           Mdports.Cell_port.default_config))

let test_fig5 =
  Test.make ~name:"fig5/spe-ladder-scheduling"
    (Staged.stage (fun () ->
         List.map
           (fun v ->
             Isa.Spe_pipe.per_iteration_cycles (Mdports.Kernels.spe_base v)
               ~overlap:Mdports.Kernels.spe_overlap)
           Mdports.Cell_variant.all))

let test_fig6 =
  Test.make ~name:"fig6/launch-accounting"
    (Staged.stage (fun () ->
         let profile = Lazy.force bench_profile in
         ( Mdports.Cell_port.time_with profile
             { Mdports.Cell_port.default_config with
               launch = Mdports.Cell_port.Respawn },
           Mdports.Cell_port.time_with profile
             Mdports.Cell_port.default_config )))

let test_fig7 =
  Test.make ~name:"fig7/gpu-step"
    (Staged.stage (fun () ->
         Mdports.Gpu_port.run ~steps:1 (Lazy.force bench_system)))

let test_fig8 =
  Test.make ~name:"fig8/mta-step"
    (Staged.stage (fun () ->
         Mdports.Mta_port.run ~steps:1 (Lazy.force bench_system)))

let test_fig9 =
  Test.make ~name:"fig9/opteron-cache-step"
    (Staged.stage (fun () ->
         Mdports.Opteron_port.run ~steps:1 (Lazy.force bench_system)))

(* Ablations. *)
let test_ablation_engines =
  let gather_sys = lazy (Mdcore.System.copy (Lazy.force bench_system)) in
  let big_sys = lazy (Mdcore.Init.build ~n:512 ()) in
  let pl = lazy (Mdcore.Pairlist.create (Lazy.force big_sys)) in
  Test.make_grouped ~name:"ablation-engines"
    [ Test.make ~name:"gather-N2"
        (Staged.stage (fun () ->
             Mdcore.Forces.compute_gather (Lazy.force gather_sys)));
      Test.make ~name:"newton3-halved"
        (Staged.stage (fun () ->
             Mdcore.Forces.compute_newton3 (Lazy.force gather_sys)));
      Test.make ~name:"pairlist"
        (Staged.stage (fun () ->
             (Mdcore.Pairlist.engine (Lazy.force pl)).Mdcore.Engine.compute
               (Lazy.force big_sys))) ]

let test_ablation_precision =
  Test.make_grouped ~name:"ablation-precision"
    [ Test.make ~name:"double-gather"
        (Staged.stage (fun () ->
             Mdcore.Forces.compute_gather (Lazy.force bench_system)));
      Test.make ~name:"f32-gather"
        (Staged.stage (fun () ->
             let s = Lazy.force bench_system in
             (Mdports.Cell_port.apply_f32_engine s).Mdcore.Engine.compute s))
    ]

let test_ablation_search =
  Test.make_grouped ~name:"ablation-min-image"
    [ Test.make ~name:"closed-form"
        (Staged.stage (fun () ->
             let acc = ref 0.0 in
             for i = 0 to 999 do
               acc :=
                 !acc +. Mdcore.Min_image.delta ~box:10.0 (float_of_int i)
             done;
             !acc));
      Test.make ~name:"search"
        (Staged.stage (fun () ->
             let acc = ref 0.0 in
             for i = 0 to 999 do
               acc :=
                 !acc
                 +. Mdcore.Min_image.delta_search ~box:10.0 (float_of_int i)
             done;
             !acc));
      Test.make ~name:"branchless-copysign"
        (Staged.stage (fun () ->
             let acc = ref 0.0 in
             for i = 0 to 999 do
               acc :=
                 !acc
                 +. Mdcore.Min_image.delta_search_branchless ~box:10.0
                      (float_of_int i)
             done;
             !acc)) ]

(* Host-parallelism ablations (DESIGN.md: Mdpar).  The pairlist builds
   contrast the cell-binned O(N) construction with the quadratic rescan
   at two sizes, so the scaling exponent is visible from the ratio. *)
(* Shared by the pool and obs ablations; built at startup, so no
   group's first sample pays the one-time construction. *)
let par_sys = Mdcore.Init.build ~n:512 ()

let test_ablation_pool =
  Test.make_grouped ~name:"ablation-pool"
    [ Test.make ~name:"gather-serial"
        (Staged.stage (fun () ->
             Mdcore.Forces.compute_gather par_sys)) ]

let test_ablation_pairlist_build =
  let make_build n brute =
    let pl =
      lazy
        (let s = Mdcore.Init.build ~n () in
         Mdcore.Pairlist.create s)
    in
    Test.make
      ~name:(Printf.sprintf "build-%s-%datoms" (if brute then "n2" else "cells") n)
      (Staged.stage (fun () ->
           let pl = Lazy.force pl in
           if brute then Mdcore.Pairlist.force_rebuild_brute pl
           else Mdcore.Pairlist.force_rebuild pl))
  in
  Test.make_grouped ~name:"ablation-pairlist-build"
    [ make_build 256 false; make_build 256 true;
      make_build 1024 false; make_build 1024 true ]

(* Skin sweep (DESIGN.md §13): the production pairlist force path at
   three skins.  A thicker skin scans more candidates per rebuild but
   rebuilds less often; the committed baseline records where the
   trade-off lands for this workload. *)
let test_ablation_skin =
  (* Built eagerly: Init.build takes a visible fraction of the bechamel
     quota, and a lazy force inside the first sample poisons the slope
     estimate for these sub-second entries. *)
  let sys = Mdcore.Init.build ~n:512 () in
  let make_skin skin =
    Test.make
      ~name:(Printf.sprintf "opteron-skin-%.1f" skin)
      (Staged.stage (fun () ->
           Mdports.Opteron_port.run ~steps:2
             ~force_path:(Mdports.Force_path.pairlist ~skin ())
             sys))
  in
  Test.make_grouped ~name:"ablation-skin"
    [ make_skin 0.2; make_skin 0.4; make_skin 0.8 ]

(* The tentpole acceptance bench: every device port at the largest bench
   size, production pairlist path vs the brute O(N²) path it replaced.
   The committed baseline entries record the pairlist beating per-step
   N² on each port. *)
let test_pairlist_vs_brute =
  let big_n = 1024 in
  (* Eager for the same reason as the skin sweep above. *)
  let big = Mdcore.Init.build ~n:big_n () in
  let port name f =
    [ Test.make ~name:(name ^ "-pairlist")
        (Staged.stage (fun () -> f Mdports.Force_path.default));
      Test.make ~name:(name ^ "-brute")
        (Staged.stage (fun () -> f Mdports.Force_path.brute)) ]
  in
  Test.make_grouped ~name:"pairlist-vs-brute"
    (List.concat
       [ port "opteron" (fun force_path ->
             Mdports.Opteron_port.run ~steps:2 ~force_path big);
         port "cell" (fun force_path ->
             Mdports.Cell_port.run ~steps:2 ~force_path big);
         port "gpu" (fun force_path ->
             Mdports.Gpu_port.run ~steps:2 ~force_path big);
         port "mta" (fun force_path ->
             Mdports.Mta_port.run ~steps:2 ~force_path big) ])

(* Tracing-overhead ablation (Mdobs): the production pairlist force
   pass on the default pool — 512 atoms run as pooled chunks, so every
   region passes Mdpar's probe sites — with the recorder off (the
   default: each probe site costs one atomic load) and with a memory
   sink attached.  The list is built here, outside the timed closures;
   the positions never move, so no sample rebuilds it. *)
let test_ablation_obs =
  let pl = Mdcore.Pairlist.create par_sys in
  Mdcore.Pairlist.force_rebuild pl;
  let engine = Mdcore.Pairlist.engine pl in
  let compute () = engine.Mdcore.Engine.compute par_sys in
  Test.make_grouped ~name:"ablation-obs"
    [ Test.make ~name:"gather-obs-disabled" (Staged.stage compute);
      Test.make ~name:"gather-obs-enabled"
        (Staged.stage (fun () ->
             Mdobs.enable (Mdobs.Sink.memory ());
             Fun.protect ~finally:Mdobs.clear compute)) ]

(* Fault-injection overhead ablation (Mdfault): the same Cell timing
   replay with no plan installed (the default — each site costs one
   inert-stream check) and with an all-zero-rate plan installed.  The
   acceptance bar is zero-rate within noise of no-plan: the fast path
   must not tax the fault-free simulators. *)
let zero_rate_spec =
  lazy
    (match Mdfault.parse_spec "all:0.0" with
    | Ok spec -> spec
    | Error msg -> failwith msg)

let test_ablation_fault =
  Test.make_grouped ~name:"ablation-fault"
    [ Test.make ~name:"cell-timing-no-plan"
        (Staged.stage (fun () ->
             Mdports.Cell_port.time_with (Lazy.force bench_profile)
               Mdports.Cell_port.default_config));
      Test.make ~name:"cell-timing-zero-rate"
        (Staged.stage (fun () ->
             Mdfault.install (Lazy.force zero_rate_spec);
             Fun.protect ~finally:Mdfault.uninstall (fun () ->
                 Mdports.Cell_port.time_with (Lazy.force bench_profile)
                   Mdports.Cell_port.default_config))) ]

(* Checkpoint-layer overhead ablation (Mdckpt): the same Opteron run
   driven directly, through the segmented runner with checkpointing
   disabled (--checkpoint-every 0, which must stay within noise of the
   direct path — it is the seed path plus one try/with), and with durable
   every-step checkpointing (tmp+fsync+rename per segment), which prices
   the crash-consistency guarantee itself. *)
let ckpt_cfg ~every ~dir =
  { Mdckpt.Runner.cfg_device = Mdckpt.Runner.Opteron;
    cfg_atoms = bench_atoms;
    cfg_steps = 2;
    cfg_seed = 42;
    cfg_density = 0.8;
    cfg_temperature = 1.0;
    cfg_force_path = Mdports.Force_path.default;
    cfg_every = every;
    cfg_keep = 2;
    cfg_dir = dir }

let ckpt_bench_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "mdsim-bench-ckpt-%d" (Unix.getpid ()))
     in
     (if not (Sys.file_exists dir) then
        try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
     dir)

let test_ablation_ckpt =
  Test.make_grouped ~name:"ablation-ckpt"
    [ Test.make ~name:"opteron-run-direct"
        (Staged.stage (fun () ->
             let s = Mdcore.Init.build ~n:bench_atoms () in
             Mdports.Opteron_port.run ~steps:2 s));
      Test.make ~name:"opteron-runner-every0"
        (Staged.stage (fun () ->
             Mdckpt.Runner.run (ckpt_cfg ~every:0 ~dir:"unused")));
      Test.make ~name:"opteron-runner-ckpt-every1"
        (Staged.stage (fun () ->
             Mdckpt.Runner.run
               (ckpt_cfg ~every:1 ~dir:(Lazy.force ckpt_bench_dir)))) ]

(* Telemetry-overhead ablation (Mdtel): the same direct Opteron run with
   no telemetry installed (the default — the per-step cost in Verlet is
   one atomic load) and with a JSONL stream sampling every step, which
   prices a full interval read + physics observables + a formatted,
   flushed line per step.  The acceptance bar is telemetry-off within
   noise of the seed path. *)
let tel_bench_path =
  lazy
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "mdsim-bench-tel-%d.jsonl" (Unix.getpid ())))

let test_ablation_tel =
  Test.make_grouped ~name:"ablation-tel"
    [ Test.make ~name:"opteron-tel-disabled"
        (Staged.stage (fun () ->
             let s = Mdcore.Init.build ~n:bench_atoms () in
             Mdports.Opteron_port.run ~steps:2 s));
      Test.make ~name:"opteron-tel-every1"
        (Staged.stage (fun () ->
             Mdtel.install
               { Mdtel.tel_path = Some (Lazy.force tel_bench_path);
                 tel_every = 1;
                 tel_total_steps = 2;
                 tel_progress = false;
                 tel_deadline = None;
                 tel_stall_s = Mdtel.default_stall_s;
                 tel_resume = false };
             Fun.protect ~finally:Mdtel.uninstall (fun () ->
                 let s = Mdcore.Init.build ~n:bench_atoms () in
                 Mdports.Opteron_port.run ~steps:2 s))) ]

(* Storage-shim ablation (Mdio): the two durable-write shapes every
   writer reduces to — atomic replace (tmp + fsync + rename) and
   append + fsync — with no fault plan vs a plan whose io rates are all
   zero.  The acceptance bar is the zero-rate path within noise of the
   direct path: with every rate at zero the shim takes the no-draw
   fast path and issues exactly the same syscalls. *)
let io_bench_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "mdsim-bench-io-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     dir)

let io_zero_spec =
  lazy
    (match
       Mdfault.parse_spec
         "io-short-write:0,io-eio:0,io-enospc:0,io-fsync-fail:0,io-rename-fail:0"
     with
    | Ok s -> s
    | Error msg -> failwith msg)

let io_payload = String.make 4096 'x'

let test_ablation_io =
  let atomic_path =
    lazy (Filename.concat (Lazy.force io_bench_dir) "atomic.bin")
  in
  let append_handle suffix =
    lazy
      (Mdio.openw ~append:true
         (Filename.concat (Lazy.force io_bench_dir) ("append-" ^ suffix)))
  in
  let direct_h = append_handle "direct" and zero_h = append_handle "zero" in
  let under_zero_plan f =
    Mdfault.install (Lazy.force io_zero_spec);
    Fun.protect ~finally:Mdfault.uninstall f
  in
  Test.make_grouped ~name:"ablation-io"
    [ Test.make ~name:"write-atomic-direct"
        (Staged.stage (fun () ->
             Mdio.write_atomic ~path:(Lazy.force atomic_path) io_payload));
      Test.make ~name:"write-atomic-zero-rate"
        (Staged.stage (fun () ->
             under_zero_plan (fun () ->
                 Mdio.write_atomic ~path:(Lazy.force atomic_path) io_payload)));
      Test.make ~name:"append-fsync-direct"
        (Staged.stage (fun () ->
             let h = Lazy.force direct_h in
             Mdio.write h io_payload;
             Mdio.fsync h));
      Test.make ~name:"append-fsync-zero-rate"
        (Staged.stage (fun () ->
             under_zero_plan (fun () ->
                 let h = Lazy.force zero_h in
                 Mdio.write h io_payload;
                 Mdio.fsync h))) ]

let test_substrates =
  let rng = Sim_util.Rng.create 7 in
  let seq_a = Seqalign.Dna.random rng ~length:64 in
  let seq_b = Seqalign.Dna.random rng ~length:64 in
  Test.make_grouped ~name:"substrates"
    [ Test.make ~name:"smith-waterman-scalar"
        (Staged.stage (fun () -> Seqalign.Reference.align seq_a seq_b));
      Test.make ~name:"smith-waterman-mta-wavefront"
        (Staged.stage (fun () ->
             Seqalign.Mta_sw.align
               ~machine:(Mta.Machine.create (Mta.Config.mta2 ()))
               seq_a seq_b)) ]

let all_tests =
  Test.make_grouped ~name:"repro"
    [ test_table1; test_fig5; test_fig6; test_fig7; test_fig8; test_fig9;
      test_ablation_engines; test_ablation_precision; test_ablation_search;
      test_ablation_pool; test_ablation_pairlist_build; test_ablation_skin;
      test_pairlist_vs_brute; test_ablation_obs;
      test_ablation_fault; test_ablation_ckpt; test_ablation_tel;
      test_ablation_io; test_substrates ]

(* Bechamel sampling config, surfaced in the results metadata so a
   baseline records how many samples produced it. *)
let bench_limit = 200
let bench_quota_s = 0.5

let run_microbenchmarks () =
  print_newline ();
  print_endline "==================================================";
  print_endline " Microbenchmarks (bechamel, wall-clock of models)";
  print_endline "==================================================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:bench_limit ~quota:(Time.second bench_quota_s)
      ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let table =
    Sim_util.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ]
  in
  let measured = ref [] in
  List.iter
    (fun (name, ols_result) ->
      let estimate_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Some e
        | _ -> None
      in
      let estimate =
        match estimate_ns with
        | Some e -> Sim_util.Table.fmt_seconds (e *. 1e-9)
        | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "n/a"
      in
      (match estimate_ns with
      | Some e -> measured := (name, e) :: !measured
      | None -> ());
      Sim_util.Table.add_row table [ name; estimate; r2 ])
    rows;
  print_endline (Sim_util.Table.render table);
  List.rev !measured

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

(* Run metadata for the v2 schema: enough to tell, reading a committed
   BENCH_results.json, exactly what produced it. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601_utc () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let entries ~repro_ns rows =
  let quick = Sys.getenv_opt "MDSIM_BENCH_QUICK" = Some "1" in
  (match repro_ns with
  | Some ns ->
    [ ( (if quick then "reproduction/wall-clock-quick"
         else "reproduction/wall-clock-paper"),
        ns ) ]
  | None -> [])
  @ rows

let write_results_json entries =
  let path =
    Option.value
      (Sys.getenv_opt "MDSIM_BENCH_JSON")
      ~default:"BENCH_results.json"
  in
  let quick = Sys.getenv_opt "MDSIM_BENCH_QUICK" = Some "1" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      Printf.fprintf oc "  \"schema\": \"mdsim-bench-v2\",\n";
      Printf.fprintf oc "  \"metadata\": {\n";
      Printf.fprintf oc "    \"git_commit\": \"%s\",\n"
        (Mdobs.json_escape (git_commit ()));
      Printf.fprintf oc "    \"timestamp\": \"%s\",\n" (iso8601_utc ());
      Printf.fprintf oc "    \"domains\": %d,\n" (Mdpar.size (Mdpar.get ()));
      Printf.fprintf oc "    \"quick\": %b,\n" quick;
      Printf.fprintf oc
        "    \"bechamel\": { \"limit\": %d, \"quota_s\": %g }\n" bench_limit
        bench_quota_s;
      Printf.fprintf oc "  },\n";
      Printf.fprintf oc "  \"results_ns\": {\n";
      let n = List.length entries in
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc "    \"%s\": %.1f%s\n"
            (Mdobs.json_escape name) ns
            (if i = n - 1 then "" else ","))
        entries;
      output_string oc "  }\n";
      output_string oc "}\n");
  Printf.printf "wrote %s (%d entries)\n" path (List.length entries)

(* Perf-regression gate: `--check BASELINE.json`. *)
let check_path () =
  let rec scan = function
    | "--check" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let run_check path entries =
  print_newline ();
  print_endline "==================================================";
  Printf.printf " Perf-regression check vs %s\n" path;
  print_endline "==================================================";
  match Sim_util.Bench_check.load_baseline path with
  | Error msg ->
    Printf.eprintf "bench --check: %s\n" msg;
    exit 2
  | Ok baseline ->
    let outcome = Sim_util.Bench_check.compare baseline entries in
    print_string (Sim_util.Bench_check.render outcome);
    if outcome.Sim_util.Bench_check.failed then exit 1

let () =
  let check = check_path () in
  let repro_ns =
    if Sys.getenv_opt "MDSIM_BENCH_SKIP_REPRO" <> Some "1" then
      Some (run_reproduction ())
    else None
  in
  let rows = run_microbenchmarks () in
  let entries = entries ~repro_ns rows in
  write_results_json entries;
  Option.iter (fun path -> run_check path entries) check
