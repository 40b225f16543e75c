(* mdsim: command-line front end for the reproduction.

   Subcommands:
     run         -- integrate an MD system on a chosen device model
     experiment  -- regenerate one paper table/figure (or "all")
     list        -- list available experiments
     devices     -- describe the modelled devices *)

open Cmdliner

let atoms_arg =
  let doc = "Number of atoms." in
  Arg.(value & opt int 2048 & info [ "n"; "atoms" ] ~docv:"N" ~doc)

let steps_arg =
  let doc = "Number of simulation time steps." in
  Arg.(value & opt int 10 & info [ "s"; "steps" ] ~docv:"STEPS" ~doc)

let seed_arg =
  let doc = "PRNG seed for the initial configuration." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let density_arg =
  let doc = "Reduced number density." in
  Arg.(value & opt float 0.8 & info [ "density" ] ~docv:"RHO" ~doc)

let temperature_arg =
  let doc = "Initial reduced temperature." in
  Arg.(value & opt float 1.0 & info [ "temperature" ] ~docv:"T" ~doc)

let engine_arg =
  let engines = List.map (fun n -> (n, n)) Mdports.Force_path.names in
  let doc =
    "Force engine: $(b,pairlist) (the skin-based Verlet neighbour list) \
     or $(b,n2) (the paper's per-step O(N²) sweep).  Without this flag \
     the pairlist runs wherever the box admits it (box >= \
     2*(cutoff+skin)) and smaller boxes fall back to n2; an explicit \
     $(b,pairlist) on such a box is refused.  Cannot be combined with \
     $(b,--resume): the checkpoint carries the engine."
  in
  Arg.(
    value
    & opt (some (enum engines)) None
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let skin_arg =
  let doc =
    "Pairlist skin thickness in σ (default 0.4).  Thicker skins rebuild \
     less often but scan more candidates per rebuild.  Requires the \
     pairlist engine; cannot be combined with $(b,--resume)."
  in
  Arg.(value & opt (some float) None & info [ "skin" ] ~docv:"SIGMA" ~doc)

let device_arg =
  let devices =
    List.map
      (fun d -> (Mdckpt.Runner.device_name d, d))
      Mdckpt.Runner.all_devices
  in
  let doc =
    "Device model: " ^ String.concat ", " (List.map fst devices) ^ "."
  in
  Arg.(
    value
    & opt (enum devices) Mdckpt.Runner.Opteron
    & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)

let quick_arg =
  let doc = "Use the small test scale instead of the paper's sizes." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let domains_arg =
  let doc =
    "Host domains (OCaml 5) for the Mdpar pool parallelizing the force \
     kernels, neighbour-list builds and the experiment harness.  Defaults \
     to $(b,MDSIM_DOMAINS) or the recommended domain count.  Virtual \
     device-time results are identical for any value; 1 forces fully \
     sequential execution."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let apply_domains = function
  | Some d when d <= 0 ->
    Printf.eprintf "mdsim: --domains must be positive (got %d)\n" d;
    exit 2
  | Some d -> Mdpar.set_default_domains d
  | None -> ()

(* One-line numeric-argument validation: a bad value must produce a
   usable error and exit 2, never a raw exception backtrace from deep
   inside a port. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "mdsim: %s\n" msg;
      exit 2)
    fmt

let validate_run_args ~steps ~temperature =
  if steps < 0 then usage_error "--steps must be non-negative (got %d)" steps;
  if (not (Float.is_finite temperature)) || temperature < 0.0 then
    usage_error "--temperature must be a finite non-negative number (got %g)"
      temperature

(* The geometry and engine are judged here, before any port runs: an
   input the system cannot take must exit 2, never raise from inside a
   port or silently run another engine. *)
let force_path_or_exit ?engine ?skin ~atoms ~density () =
  match Mdports.Force_path.setup ?engine ?skin ~n:atoms ~density () with
  | Ok force_path -> force_path
  | Error msg -> usage_error "%s" msg

let faults_arg =
  let doc =
    "Enable deterministic fault injection.  $(docv) is a comma-separated \
     list of SITE:RATE (sites: cell-dma, cell-mailbox, gpu-pcie, \
     gpu-texture, mta-retry, mem-bitflip, or $(b,all)), plus optional \
     seed=INT, retries=INT, backoff=SECS, watchdog=INT.  The same spec \
     reproduces the identical fault sequence; rate 0.0 is fully inert."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_log_arg =
  let doc =
    "Write the injected-fault event log as JSON (schema mdsim-faults-v1) \
     to $(docv).  Deterministic: byte-identical across runs and \
     $(b,--domains) values for the same spec."
  in
  Arg.(value & opt (some string) None & info [ "fault-log" ] ~docv:"FILE" ~doc)

(* Like tracing and profiling, the plan must be installed before any
   machine exists: streams created without a plan are permanently
   inert. *)
let start_faults spec_text =
  match spec_text with
  | None -> ()
  | Some text -> (
    match Mdfault.parse_spec text with
    | Ok spec -> Mdfault.install spec
    | Error msg -> usage_error "invalid fault spec %S: %s" text msg)

let finish_fault_log = function
  | Some path ->
    Mdio.write_atomic ~fsync_dir:false ~path (Mdfault.events_json ());
    Printf.printf "wrote %s\n" path
  | None -> ()

(* Printed after a run only when something was actually injected, so a
   zero-rate plan leaves stdout byte-identical to a plan-free run. *)
let print_fault_summary () =
  if Mdfault.active () then begin
    let s = Mdfault.summary () in
    if s.Mdfault.injected > 0 then
      print_endline ("  " ^ Mdfault.summary_line s)
  end

let trace_arg =
  let doc =
    "Record execution to $(docv) as Chrome trace-event JSON (load in \
     chrome://tracing or Perfetto).  Virtual device-time events are \
     byte-identical for any $(b,--domains) value; host-time events \
     (pid 2) are not."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let telemetry_arg =
  let doc =
    "Stream run telemetry to $(docv) as JSONL (schema \
     mdsim-telemetry-v1): one record per sampling interval with energy, \
     temperature, momentum, per-interval virtual counter deltas, derived \
     bandwidth/occupancy metrics and pairlist rebuild cadence, plus \
     threshold alert records.  Everything before each record's trailing \
     $(b,host) object is byte-identical for any $(b,--domains) value and \
     across kill + $(b,--resume) (see $(b,mdsim tail --virtual)).  \
     Combinable with $(b,--resume): the stream is reconciled with the \
     checkpoint and appended to."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let telemetry_every_arg =
  let doc =
    "Telemetry sampling cadence in steps (default 100).  Requires \
     $(b,--telemetry)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "telemetry-every" ] ~docv:"STEPS" ~doc)

let progress_arg =
  let doc =
    "Live progress line on stderr (steps/s, ETA against $(b,--deadline), \
     energy drift, fault and guard-restore counts).  Only drawn when \
     stderr is a terminal."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* Telemetry streams counter deltas, so install must happen after
   start_counters (an explicit --counters keeps its end-of-run export)
   and before any machine exists. *)
let start_telemetry ~telemetry ~tel_every ~progress ~steps ~deadline ~resume =
  (match (telemetry, tel_every) with
  | None, Some _ ->
    usage_error "--telemetry-every requires --telemetry FILE"
  | _, Some n when n < 1 ->
    usage_error "--telemetry-every must be a positive step count (got %d)" n
  | _ -> ());
  if telemetry <> None || progress then
    Mdtel.install
      { Mdtel.tel_path = telemetry;
        tel_every = Option.value tel_every ~default:100;
        tel_total_steps = (if resume then 0 else steps);
        tel_progress = progress;
        tel_deadline = deadline;
        tel_stall_s = Mdtel.default_stall_s;
        tel_resume = resume }

let finish_telemetry ~quiet telemetry =
  if Mdtel.active () then begin
    Mdtel.finish ();
    match telemetry with
    | Some path when not quiet -> Printf.printf "wrote %s\n" path
    | _ -> ()
  end

let metrics_arg =
  let doc =
    "Write machine-readable metrics JSON to $(docv).  Contains only \
     deterministic virtual-time data."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let counters_arg =
  let doc =
    "Write the virtual performance-counter profile to $(docv): JSON \
     (schema mdsim-counters-v1), or CSV when $(docv) ends in $(b,.csv).  \
     Virtual-clock counters are byte-identical for any $(b,--domains) \
     value."
  in
  Arg.(value & opt (some string) None & info [ "counters" ] ~docv:"FILE" ~doc)

(* Like tracing, profiling must be on before any machine or pool exists:
   instruments created while disabled are inert. *)
let start_counters = function Some _ -> Mdprof.enable () | None -> ()

let finish_counters = function
  | Some path ->
    let data =
      if Filename.check_suffix path ".csv" then Mdprof.to_csv ()
      else Mdprof.to_json ()
    in
    Mdio.write_atomic ~fsync_dir:false ~path data;
    Printf.printf "wrote %s\n" path
  | None -> ()

(* Tracing must be on before any machine/pool exists: tracks created
   while disabled are inert. *)
let start_trace = function
  | Some _ -> Mdobs.enable (Mdobs.Sink.memory ())
  | None -> ()

let finish_trace trace =
  match trace with
  | Some path ->
    Mdobs.disable ();
    Mdio.write_atomic ~fsync_dir:false ~path (Mdobs.to_chrome_json ());
    Printf.printf "wrote %s\n" path
  | None -> ()

let write_run_metrics path (r : Mdports.Run_result.t) =
  Mdio.write_atomic ~fsync_dir:false ~path
    (Mdports.Run_result.metrics_json r);
  Printf.printf "wrote %s\n" path

let csv_dir_arg =
  let doc = "Also write each experiment's data as CSV into $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let markdown_arg =
  let doc = "Also write a Markdown report to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "markdown" ] ~docv:"FILE" ~doc)

let xyz_arg =
  let doc = "Write the trajectory (one frame per step) as XYZ to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dump-xyz" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc =
    "Checkpoint the run every $(docv) steps into $(b,--checkpoint-dir).  \
     The run executes in $(docv)-step segments with a durable, \
     CRC-checksummed snapshot (schema mdsim-checkpoint-v1) after each, \
     so a killed run resumed with $(b,--resume) converges bitwise to an \
     uninterrupted one.  0 (the default) disables checkpointing."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"STEPS" ~doc)

let checkpoint_dir_arg =
  let doc = "Directory for checkpoint generations." in
  Arg.(
    value
    & opt string "mdsim-checkpoints"
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let checkpoint_keep_arg =
  let doc = "Retain the newest $(docv) checkpoint generations (GC the rest)." in
  Arg.(value & opt int 2 & info [ "checkpoint-keep" ] ~docv:"K" ~doc)

let resume_arg =
  let doc =
    "Resume from $(docv): a checkpoint file, or a checkpoint directory \
     (the newest valid generation is used; corrupt files are rejected \
     with a diagnostic and the previous generation is tried).  The \
     checkpoint carries the full run configuration and fault-plan state, \
     so $(b,--atoms)/$(b,--steps)/$(b,--seed)/$(b,--faults) are taken \
     from it, not from the command line."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)

let deadline_arg =
  let doc =
    "Abort the run after $(docv) wall-clock seconds (host clock), \
     checkpointing first when checkpointing is active, and exit with \
     status 3."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let guard_arg =
  let doc =
    "Enable the integrator invariant guard: each step is checked for \
     NaN/Inf positions, energy jumps and net-momentum drift, and a \
     violating step is re-executed from the pre-step snapshot (fresh \
     fault draws) before the run is declared invalid."
  in
  Arg.(value & flag & info [ "guard" ] ~doc)

let validate_checkpoint_args ~every ~keep ~deadline ~resume =
  if every < 0 then
    usage_error "--checkpoint-every must be a non-negative step count (got %d)"
      every;
  if keep < 1 then
    usage_error "--checkpoint-keep must be at least 1 (got %d)" keep;
  (match deadline with
  | Some d when (not (Float.is_finite d)) || d <= 0.0 ->
    usage_error "--deadline must be a finite positive number of seconds (got %g)"
      d
  | _ -> ());
  match resume with
  | Some path when not (Sys.file_exists path) ->
    usage_error "--resume path %s does not exist" path
  | _ -> ()

let apply_guard guard =
  if guard then Mdcore.Verlet.install_guard Mdcore.Verlet.default_guard

let build_system ~atoms ~seed ~density ~temperature =
  Mdcore.Init.build ~seed ~density ~temperature ~n:atoms ()

let print_result (r : Mdports.Run_result.t) =
  print_string (Mdports.Run_result.render_summary r)

(* Segmented runs hold the checkpoint directory's single-writer guard
   for their whole lifetime (released by process exit): two runs
   checkpointing into the same directory would GC each other's
   generations.  The Lock.t is deliberately dropped — the descriptor
   stays open and locked until exit. *)
let guard_ckpt_dir_or_exit dir =
  match Mdckpt.Lock.guard_dir ~dir with
  | Ok lock -> ignore (lock : Mdckpt.Lock.t)
  | Error msg ->
    Printf.eprintf "mdsim: %s\n" msg;
    exit 1

(* SIGTERM/SIGINT on a segmented run become a graceful suspend: the
   in-flight segment finishes, its checkpoint is made durable, stdout
   telemetry is flushed, and the process exits 3 with the --resume
   hint — same path as a deadline expiry. *)
let install_suspend_handlers () =
  let handler name =
    Sys.Signal_handle
      (fun _ -> Mdckpt.Runner.request_suspend ~reason:(name ^ " received"))
  in
  Sys.set_signal Sys.sigterm (handler "SIGTERM");
  Sys.set_signal Sys.sigint (handler "SIGINT")

let run_cmd =
  let action atoms steps seed density temperature device engine skin
      xyz_path domains trace metrics counters faults fault_log every
      ckpt_dir keep resume deadline guard telemetry tel_every progress =
    apply_domains domains;
    validate_run_args ~steps ~temperature;
    validate_checkpoint_args ~every ~keep ~deadline ~resume;
    (* A resumed run takes its geometry and engine from the checkpoint. *)
    let plan =
      match resume with
      | Some path ->
        if faults <> None then
          usage_error
            "--resume cannot be combined with --faults: the checkpoint \
             carries the fault plan";
        if engine <> None || skin <> None then
          usage_error
            "--resume cannot be combined with --engine/--skin: the \
             checkpoint carries the force engine";
        if xyz_path <> None then
          usage_error "--resume cannot be combined with --dump-xyz";
        `Resume path
      | None -> (
        match force_path_or_exit ?engine ?skin ~atoms ~density () with
        | Mdports.Force_path.Brute when skin <> None ->
          usage_error "--skin requires the pairlist engine (got --engine n2)"
        | force_path -> `Run force_path)
    in
    start_trace trace;
    start_counters counters;
    start_telemetry ~telemetry ~tel_every ~progress ~steps ~deadline
      ~resume:(resume <> None);
    start_faults faults;
    apply_guard guard;
    (match plan with
    | `Resume path ->
      guard_ckpt_dir_or_exit
        (if Sys.file_exists path && Sys.is_directory path then path
         else Filename.dirname path);
      install_suspend_handlers ()
    | `Run _ ->
      if every > 0 then begin
        guard_ckpt_dir_or_exit ckpt_dir;
        install_suspend_handlers ()
      end);
    (* Even with checkpointed step retries a high enough rate can exhaust
       recovery; report the failure cleanly, with whatever fault log was
       requested, instead of a backtrace. *)
    let or_unrecovered f =
      match f () with
      | r -> r
      | exception Mdfault.Unrecovered fl ->
        Printf.eprintf "mdsim: %s\n" (Mdfault.failure_message fl);
        finish_fault_log fault_log;
        exit 1
    in
    let finish_complete result =
      print_result result;
      print_fault_summary ();
      (* Before finish_trace: the final telemetry sample also lands in
         the Mdobs timeline. *)
      finish_telemetry ~quiet:false telemetry;
      finish_trace trace;
      finish_counters counters;
      finish_fault_log fault_log;
      match metrics with
      | Some path -> write_run_metrics path result
      | None -> ()
    in
    (* Suspension (deadline, test hooks, persistent invariant violation)
       goes to stderr so a resumed run's stdout stays comparable. *)
    let finish_suspended (s : Mdckpt.Runner.suspension) =
      Printf.eprintf "mdsim: run suspended at step %d/%d: %s\n"
        s.Mdckpt.Runner.sus_completed s.Mdckpt.Runner.sus_total
        s.Mdckpt.Runner.sus_reason;
      (match s.Mdckpt.Runner.sus_path with
      | Some path -> Printf.eprintf "mdsim: resume with --resume %s\n" path
      | None -> Printf.eprintf "mdsim: no checkpoint written\n");
      (* Quiet: a suspended run's stdout must not gain lines an
         uninterrupted run would lack. *)
      finish_telemetry ~quiet:true telemetry;
      finish_trace trace;
      finish_counters counters;
      finish_fault_log fault_log;
      exit 3
    in
    let finish_outcome = function
      | Mdckpt.Runner.Complete r -> finish_complete r
      | Mdckpt.Runner.Suspended s -> finish_suspended s
    in
    match plan with
    | `Resume path ->
      let outcome =
        or_unrecovered (fun () ->
            match Mdckpt.Runner.resume ?deadline path with
            | Ok o -> o
            | Error msg -> usage_error "cannot resume from %s: %s" path msg)
      in
      finish_outcome outcome
    | `Run force_path ->
      (match xyz_path with
      | Some path ->
        (* The timing ports integrate internal copies, so dump the
           trajectory from a plain reference run with the same start —
           suspended so this auxiliary run never reaches the telemetry
           stream. *)
        Mdtel.with_suspended (fun () ->
            let traj_system =
              build_system ~atoms ~seed ~density ~temperature
            in
            let frames = ref [] in
            ignore
              (Mdcore.Verlet.run traj_system
                 ~engine:Mdcore.Forces.gather_engine ~steps
                 ~record:(fun _ ->
                   frames := Mdcore.System.copy traj_system :: !frames)
                 ());
            Mdcore.Xyz.write_trajectory ~path ~frames:(List.rev !frames) ());
        Printf.printf "wrote %d frames to %s\n" (steps + 1) path
      | None -> ());
      let cfg =
        { Mdckpt.Runner.cfg_device = device;
          cfg_atoms = atoms; cfg_steps = steps; cfg_seed = seed;
          cfg_density = density; cfg_temperature = temperature;
          cfg_force_path = force_path;
          cfg_every = every; cfg_keep = keep; cfg_dir = ckpt_dir }
      in
      finish_outcome
        (or_unrecovered (fun () -> Mdckpt.Runner.run ?deadline cfg))
  in
  let term =
    Term.(
      const action $ atoms_arg $ steps_arg $ seed_arg $ density_arg
      $ temperature_arg $ device_arg $ engine_arg $ skin_arg $ xyz_arg
      $ domains_arg $ trace_arg $ metrics_arg $ counters_arg $ faults_arg
      $ fault_log_arg $ checkpoint_every_arg $ checkpoint_dir_arg
      $ checkpoint_keep_arg $ resume_arg $ deadline_arg $ guard_arg
      $ telemetry_arg $ telemetry_every_arg $ progress_arg)
  in
  let doc = "Run the MD kernel on one device model." in
  Cmd.v (Cmd.info "run" ~doc) term

let experiment_cmd =
  let id_arg =
    let doc =
      "Experiment id (table1, fig5 ... fig9, ext-precision, ...), 'all'        (the paper's six artifacts), 'extensions', or 'everything'."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let manifest_arg =
    let doc =
      "Record each experiment's classified result in $(docv) (schema \
       mdsim-manifest-v1) as it finishes.  Re-running with the same \
       $(docv) reuses finished entries and re-runs only what is missing \
       or was degraded/failed — an interrupted report resumes instead of \
       starting over.  Entries are keyed by scale and fault spec."
    in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let exp_deadline_arg =
    let doc =
      "Per-experiment wall-clock deadline in seconds (host clock).  An \
       experiment exceeding it is aborted at its next integrator step \
       and classified $(b,degraded); the report completes with a \
       deterministic placeholder entry."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let action id quick csv_dir markdown domains trace metrics counters faults
      fault_log manifest deadline guard =
    apply_domains domains;
    (match deadline with
    | Some d when (not (Float.is_finite d)) || d <= 0.0 ->
      usage_error
        "--deadline must be a finite positive number of seconds (got %g)" d
    | _ -> ());
    start_trace trace;
    start_counters counters;
    start_faults faults;
    apply_guard guard;
    let scale =
      if quick then Harness.Context.quick_scale
      else Harness.Context.paper_scale
    in
    let ctx = Harness.Context.create ~scale () in
    let manifest =
      match manifest with
      | None -> None
      | Some path ->
        let key =
          Harness.Context.scale_key scale
          ^
          match Mdfault.current_spec () with
          | Some spec -> ",faults=" ^ Mdfault.spec_to_string spec
          | None -> ""
        in
        let m =
          match Harness.Manifest.load_or_create ~path ~key with
          | Ok m -> m
          | Error msg ->
            Printf.eprintf "mdsim: %s\n" msg;
            exit 1
        in
        let n = Harness.Manifest.entry_count m in
        if n > 0 then
          Printf.eprintf
            "mdsim: resuming from manifest %s (%d finished entries)\n%!"
            path n;
        Some m
    in
    let run_list es =
      Harness.Report.run_list_classified ?manifest ?deadline ctx es
    in
    let classified =
      match id with
      | "all" -> Harness.Report.run_all_classified ?manifest ?deadline ctx
      | "extensions" -> run_list Harness.Registry.extensions
      | "everything" ->
        Harness.Report.run_all_classified ?manifest ?deadline ctx
        @ run_list Harness.Registry.extensions
      | id -> begin
        match Harness.Registry.find id with
        | Some e -> run_list [ e ]
        | None ->
          Printf.eprintf
            "unknown experiment %S; available: %s | %s | all, extensions,              everything\n"
            id
            (String.concat ", " Harness.Registry.ids)
            (String.concat ", " Harness.Registry.extension_ids);
          exit 2
      end
    in
    let outcomes =
      List.map (fun c -> c.Harness.Report.outcome) classified
    in
    let eventful =
      List.exists
        (fun c -> c.Harness.Report.status <> Harness.Report.Ok)
        classified
      || (Mdfault.active () && (Mdfault.summary ()).Mdfault.injected > 0)
    in
    print_endline (Harness.Report.render_classified classified);
    print_endline (Harness.Report.summary_line outcomes);
    if eventful then begin
      print_endline (Harness.Report.classified_summary_line classified);
      print_endline (Mdfault.summary_line (Mdfault.summary ()))
    end;
    (match csv_dir with
    | Some dir ->
      let files = Harness.Report.write_csvs ~dir outcomes in
      List.iter (Printf.printf "wrote %s\n") files
    | None -> ());
    (match markdown with
    | Some path ->
      Mdio.write_atomic ~fsync_dir:false ~path
        (Harness.Report.to_markdown outcomes);
      Printf.printf "wrote %s\n" path
    | None -> ());
    finish_trace trace;
    finish_counters counters;
    finish_fault_log fault_log;
    (match metrics with
    | Some path ->
      Mdio.write_atomic ~fsync_dir:false ~path
        (Harness.Report.metrics_json ~classified outcomes);
      Printf.printf "wrote %s\n" path
    | None -> ());
    (* Under fault injection or a deadline supervisor the report is
       judged on resilience: the process fails only if an experiment
       ended [Failed] (deadline aborts classify [Degraded]).  Otherwise
       the strict all-checks-pass gate is unchanged. *)
    if Mdfault.active () || deadline <> None then begin
      if
        List.exists
          (fun c -> c.Harness.Report.status = Harness.Report.Failed)
          classified
      then exit 1
    end
    else if not (List.for_all Harness.Experiment.all_passed outcomes) then
      exit 1
  in
  let term =
    Term.(
      const action $ id_arg $ quick_arg $ csv_dir_arg $ markdown_arg
      $ domains_arg $ trace_arg $ metrics_arg $ counters_arg $ faults_arg
      $ fault_log_arg $ manifest_arg $ exp_deadline_arg $ guard_arg)
  in
  let doc = "Regenerate a table or figure from the paper." in
  Cmd.v (Cmd.info "experiment" ~doc) term

let list_cmd =
  let action () =
    print_endline "Paper artifacts:";
    List.iter
      (fun (e : Harness.Experiment.t) ->
        Printf.printf "  %-18s %s (%s)\n" e.id e.title e.paper_ref)
      Harness.Registry.all;
    print_endline "Extensions:";
    List.iter
      (fun (e : Harness.Experiment.t) ->
        Printf.printf "  %-18s %s (%s)\n" e.id e.title e.paper_ref)
      Harness.Registry.extensions
  in
  let doc = "List reproducible experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())

let devices_cmd =
  let action () =
    print_endline
      "opteron      2.2 GHz AMD Opteron reference (double precision, \
       cache-simulated memory)";
    print_endline
      "cell         STI Cell BE, 8 SPEs, persistent threads, all SIMD \
       optimizations (single precision)";
    print_endline "cell-1spe    Cell BE restricted to one SPE";
    print_endline
      "ppe          Cell BE PPE only (no SPE offload, single precision)";
    print_endline
      "gpu          NVIDIA GeForce 7900GTX-class stream processor (single \
       precision)";
    print_endline
      "mta          Cray MTA-2, fully multithreaded (double precision)";
    print_endline
      "mta-partial  Cray MTA-2 with the reduction-blocked serial hot loop"
  in
  let doc = "Describe the modelled devices." in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const action $ const ())

let profile_cmd =
  let action atoms steps seed density temperature quick domains counters =
    apply_domains domains;
    validate_run_args ~steps ~temperature;
    let atoms, steps = if quick then (min atoms 256, min steps 4) else (atoms, steps) in
    let force_path = force_path_or_exit ~atoms ~density () in
    Mdprof.enable ();
    let system = build_system ~atoms ~seed ~density ~temperature in
    let runs =
      [ ("opteron",
         fun () -> Mdports.Opteron_port.run ~steps ~force_path system);
        ("cell", fun () -> Mdports.Cell_port.run ~steps ~force_path system);
        ("gpu", fun () -> Mdports.Gpu_port.run ~steps ~force_path system);
        ("mta", fun () -> Mdports.Mta_port.run ~steps ~force_path system) ]
    in
    Printf.printf "Profiling %d atoms x %d steps on every device model:\n\n"
      atoms steps;
    List.iter
      (fun (name, f) ->
        let r = f () in
        Printf.printf "  %-8s %s virtual\n" name
          (Sim_util.Table.fmt_seconds r.Mdports.Run_result.seconds))
      runs;
    print_newline ();
    print_string (Mdprof.render ());
    finish_counters counters
  in
  let term =
    Term.(
      const action $ atoms_arg $ steps_arg $ seed_arg $ density_arg
      $ temperature_arg $ quick_arg $ domains_arg $ counters_arg)
  in
  let doc =
    "Run the MD kernel on every device model and report the virtual \
     performance counters (DMA traffic, texture fetches, cache misses, \
     stream recruitment, derived bandwidth/occupancy/MFLOPS)."
  in
  Cmd.v (Cmd.info "profile" ~doc) term

let read_file_or_exit path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> content
  | exception Sys_error msg -> usage_error "cannot read %s: %s" path msg

let tail_cmd =
  let file_arg =
    let doc = "Telemetry stream (JSONL) written by $(b,run --telemetry)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let limit_arg =
    let doc = "Show the last $(docv) samples (default 12)." in
    Arg.(value & opt int 12 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let virtual_arg =
    let doc =
      "Print the deterministic virtual projection of the stream instead \
       of the summary: host-clock alerts dropped, the trailing $(b,host) \
       object stripped from every record.  Byte-identical across \
       $(b,--domains) values and across kill + $(b,--resume)."
    in
    Arg.(value & flag & info [ "virtual" ] ~doc)
  in
  let action path limit virt =
    if limit < 1 then usage_error "--limit must be positive (got %d)" limit;
    let content = read_file_or_exit path in
    if virt then print_string (Mdtel.virtual_projection content)
    else print_string (Mdtel.render_tail ~limit content)
  in
  let doc =
    "Summarize a telemetry stream (works on in-flight files: a torn \
     final line is skipped)."
  in
  Cmd.v (Cmd.info "tail" ~doc)
    Term.(const action $ file_arg $ limit_arg $ virtual_arg)

let report_cmd =
  let pos_file index name =
    let doc =
      Printf.sprintf
        "The %s: a telemetry stream (JSONL) or an mdsim-counters-v1 \
         export." name
    in
    Arg.(required & pos index (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let tolerance_arg =
    let doc =
      "Relative tolerance: a candidate metric above baseline * (1 + \
       $(docv)) is a regression (default 0.05)."
    in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~docv:"T" ~doc)
  in
  let action baseline candidate tolerance =
    if (not (Float.is_finite tolerance)) || tolerance < 0.0 then
      usage_error "--tolerance must be a finite non-negative number (got %g)"
        tolerance;
    let outcome =
      Mdtel.diff ~tolerance
        ~baseline:(read_file_or_exit baseline)
        ~candidate:(read_file_or_exit candidate)
        ()
    in
    print_string (Sim_util.Bench_check.render outcome);
    if outcome.Sim_util.Bench_check.failed then exit 1
  in
  let diff_cmd =
    let doc =
      "Compare two runs' telemetry/counter metrics; exit 1 when the \
       candidate regresses beyond the tolerance."
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(
        const action $ pos_file 0 "baseline" $ pos_file 1 "candidate"
        $ tolerance_arg)
  in
  let doc = "Analyze and compare recorded run metrics." in
  Cmd.group (Cmd.info "report" ~doc) [ diff_cmd ]

(* --- serve daemon and its client ---------------------------------- *)

let serve_dir_arg =
  let doc =
    "Serve directory: the job ledger ($(b,ledger.jsonl)), per-job \
     checkpoints and artifacts ($(b,jobs/)$(i,ID)), and the \
     single-writer lock live here."
  in
  Arg.(
    value & opt string "mdsim-serve" & info [ "dir" ] ~docv:"DIR" ~doc)

let socket_arg =
  let doc =
    "Unix-domain socket path (default $(b,--dir)/serve.sock)."
  in
  Arg.(
    value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let resolve_socket ~dir = function
  | Some s -> s
  | None -> Filename.concat dir "serve.sock"

let serve_cmd =
  let max_queue_arg =
    let doc = "Admission bound: reject submits beyond $(docv) live jobs." in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry budget per job for unrecovered fault deaths; the retried \
       segment restarts from its durable checkpoint with fresh fault \
       draws."
    in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in seconds, doubled per attempt." in
    Arg.(value & opt float 0.5 & info [ "retry-backoff" ] ~docv:"SECONDS" ~doc)
  in
  let resume_queue_arg =
    let doc =
      "Replay an existing ledger and re-adopt every unfinished job at \
       its newest valid checkpoint generation.  Without this flag an \
       existing ledger is refused, never silently forked."
    in
    Arg.(value & flag & info [ "resume-queue" ] ~doc)
  in
  let action socket dir max_queue retries backoff resume domains =
    apply_domains domains;
    if max_queue <= 0 then
      usage_error "--max-queue must be positive (got %d)" max_queue;
    if retries < 0 then
      usage_error "--retries must be non-negative (got %d)" retries;
    if (not (Float.is_finite backoff)) || backoff < 0.0 then
      usage_error "--retry-backoff must be finite and non-negative (got %g)"
        backoff;
    let cfg =
      { Mdserve.Daemon.d_socket = resolve_socket ~dir socket;
        d_engine =
          { Mdserve.Engine.cfg_dir = dir; cfg_max_queue = max_queue;
            cfg_retries = retries; cfg_backoff_s = backoff;
            cfg_resume = resume } }
    in
    match Mdserve.Daemon.serve cfg with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "mdsim: serve: %s\n" msg;
      exit 1
  in
  let doc =
    "Serve checkpointed MD jobs over a Unix socket: fair round-robin \
     scheduling across tenants, durable job ledger \
     (mdsim-ledger-v1), per-job deadlines and bounded fault-death \
     retries.  SIGTERM drains gracefully; kill -9 plus \
     $(b,--resume-queue) converges every job bitwise with its \
     uninterrupted run."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const action $ socket_arg $ serve_dir_arg $ max_queue_arg
      $ retries_arg $ backoff_arg $ resume_queue_arg $ domains_arg)

let socket_arg' =
  let doc = "Daemon Unix socket path." in
  Arg.(
    value
    & opt string (Filename.concat "mdsim-serve" "serve.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc)

let connect_retries_arg =
  let doc =
    "Connect retries when the daemon socket is missing or refusing \
     (exponential backoff from 50 ms); scripts racing a daemon start \
     should raise this."
  in
  Arg.(value & opt int 5 & info [ "connect-retries" ] ~docv:"N" ~doc)

let connect_timeout_arg =
  let doc = "Overall connect retry window, seconds." in
  Arg.(
    value & opt float 10.0 & info [ "connect-timeout" ] ~docv:"SECONDS" ~doc)

(* Job client: send one request line, print the reply JSON, exit 0/1 by
   its "ok" field. *)
let client_exec ~socket ~retries ~timeout request =
  match Mdserve.Protocol.roundtrip ~retries ~timeout ~socket request with
  | Error msg ->
    Printf.eprintf "mdsim: %s\n" msg;
    exit 1
  | Ok reply ->
    print_endline reply;
    let ok =
      match Sim_util.Minijson.parse reply with
      | exception Sim_util.Minijson.Parse_error _ -> false
      | j ->
        Option.bind (Sim_util.Minijson.member "ok" j)
          Sim_util.Minijson.to_bool
        = Some true
    in
    if not ok then exit 1

let job_cmd =
  let jescape = Mdobs.json_escape in
  let job_pos_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB")
  in
  let submit_cmd =
    let id_arg =
      let doc = "Job id (generated when omitted); becomes jobs/$(docv)." in
      Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)
    in
    let tenant_arg =
      let doc = "Tenant for fair round-robin scheduling." in
      Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME" ~doc)
    in
    let priority_arg =
      let doc =
        "Scheduler quantum: consecutive segments the job keeps the slot \
         for when picked (1..64)."
      in
      Arg.(value & opt int 1 & info [ "priority" ] ~docv:"N" ~doc)
    in
    let device_arg =
      let doc = "Device model (see $(b,mdsim devices))." in
      Arg.(value & opt string "opteron" & info [ "device" ] ~docv:"NAME" ~doc)
    in
    let engine_arg =
      let doc = "Force engine: $(b,default), $(b,pairlist) or $(b,n2)." in
      Arg.(value & opt string "default" & info [ "engine" ] ~docv:"NAME" ~doc)
    in
    let atoms_arg =
      Arg.(value & opt int 256 & info [ "atoms" ] ~docv:"N")
    in
    let steps_arg =
      Arg.(value & opt int 100 & info [ "steps" ] ~docv:"N")
    in
    let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
    let density_arg =
      Arg.(value & opt float 0.8 & info [ "density" ] ~docv:"RHO")
    in
    let temperature_arg =
      Arg.(value & opt float 1.0 & info [ "temperature" ] ~docv:"T")
    in
    let skin_arg =
      Arg.(value & opt float 0.4 & info [ "skin" ] ~docv:"SIGMA")
    in
    let every_arg =
      let doc = "Checkpoint segment length in steps." in
      Arg.(value & opt int 25 & info [ "every" ] ~docv:"STEPS" ~doc)
    in
    let keep_arg =
      Arg.(value & opt int 4 & info [ "keep" ] ~docv:"K")
    in
    let faults_arg =
      let doc = "Fault-injection plan (same spec as $(b,mdsim run))." in
      Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
    in
    let deadline_arg =
      let doc = "Host-seconds budget across all the job's segments." in
      Arg.(
        value
        & opt (some float) None
        & info [ "deadline" ] ~docv:"SECONDS" ~doc)
    in
    let telemetry_arg =
      let doc = "Stream the job's telemetry to jobs/$(i,ID)/telemetry.jsonl." in
      Arg.(value & flag & info [ "telemetry" ] ~doc)
    in
    let tel_every_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "telemetry-every" ] ~docv:"STEPS")
    in
    let action socket retries timeout id tenant priority device engine
        atoms steps seed density temperature skin every keep faults
        deadline telemetry tel_every =
      let b = Buffer.create 256 in
      Buffer.add_string b "{\"op\":\"submit\"";
      let str k v = Printf.bprintf b ",\"%s\":\"%s\"" k (jescape v) in
      let int k v = Printf.bprintf b ",\"%s\":%d" k v in
      let num k v = Printf.bprintf b ",\"%s\":%s" k (Mdobs.json_float v) in
      Option.iter (str "id") id;
      str "tenant" tenant;
      int "priority" priority;
      str "device" device;
      str "engine" engine;
      int "atoms" atoms;
      int "steps" steps;
      int "seed" seed;
      num "density" density;
      num "temperature" temperature;
      num "skin" skin;
      int "every" every;
      int "keep" keep;
      Option.iter (str "faults") faults;
      Option.iter (num "deadline") deadline;
      if telemetry then Buffer.add_string b ",\"telemetry\":true";
      int "tel_every" (Option.value tel_every ~default:every);
      Buffer.add_char b '}';
      client_exec ~socket ~retries ~timeout (Buffer.contents b)
    in
    let doc = "Submit a checkpointed job to the daemon." in
    Cmd.v (Cmd.info "submit" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg $ id_arg $ tenant_arg $ priority_arg
        $ device_arg $ engine_arg $ atoms_arg $ steps_arg $ seed_arg
        $ density_arg $ temperature_arg $ skin_arg $ every_arg $ keep_arg
        $ faults_arg $ deadline_arg $ telemetry_arg $ tel_every_arg)
  in
  let status_cmd =
    let action socket retries timeout job =
      client_exec ~socket ~retries ~timeout
        (match job with
        | Some id -> Printf.sprintf "{\"op\":\"status\",\"job\":\"%s\"}"
                       (jescape id)
        | None -> "{\"op\":\"status\"}")
    in
    let doc = "Queue status, or one job's when $(i,JOB) is given." in
    Cmd.v (Cmd.info "status" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg $ job_pos_arg)
  in
  let cancel_cmd =
    let job_req_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB")
    in
    let action socket retries timeout job =
      client_exec ~socket ~retries ~timeout
        (Printf.sprintf "{\"op\":\"cancel\",\"job\":\"%s\"}" (jescape job))
    in
    let doc = "Cancel a queued or running job at its next segment boundary." in
    Cmd.v (Cmd.info "cancel" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg $ job_req_arg)
  in
  let tail_cmd =
    let limit_arg =
      Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N")
    in
    let action socket retries timeout job limit =
      client_exec ~socket ~retries ~timeout
        (Printf.sprintf "{\"op\":\"tail\",\"job\":\"%s\",\"limit\":%d}"
           (jescape (Option.value job ~default:"")) limit)
    in
    let doc = "Last ledger records, optionally for one $(i,JOB)." in
    Cmd.v (Cmd.info "tail" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg $ job_pos_arg $ limit_arg)
  in
  let drain_cmd =
    let action socket retries timeout =
      client_exec ~socket ~retries ~timeout "{\"op\":\"drain\"}"
    in
    let doc =
      "Ask the daemon to drain: finish the in-flight segment, \
       checkpoint every live job, flush the ledger, exit."
    in
    Cmd.v (Cmd.info "drain" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg)
  in
  let ping_cmd =
    let action socket retries timeout =
      client_exec ~socket ~retries ~timeout "{\"op\":\"ping\"}"
    in
    let doc = "Liveness check." in
    Cmd.v (Cmd.info "ping" ~doc)
      Term.(
        const action $ socket_arg' $ connect_retries_arg
        $ connect_timeout_arg)
  in
  let doc = "Client operations against a running $(b,mdsim serve) daemon." in
  Cmd.group (Cmd.info "job" ~doc)
    [ submit_cmd; status_cmd; cancel_cmd; tail_cmd; drain_cmd; ping_cmd ]

let crashcheck_cmd =
  let dir_arg =
    let doc = "Scratch root for the reference pass and per-op trials." in
    Arg.(value & opt string "mdsim-crashcheck" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let mode_arg =
    let doc =
      "What to sweep: $(b,serve) (the full daemon: ledger, checkpoints, \
       artifacts, telemetry) or $(b,run) (the single-shot segmented \
       runner)."
    in
    Arg.(
      value
      & opt (enum [ ("serve", Mdserve.Crashcheck.Serve);
                    ("run", Mdserve.Crashcheck.Run) ])
          Mdserve.Crashcheck.Serve
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let jobs_arg =
    let doc = "Jobs in the serve-mode queue (two tenants)." in
    Arg.(value & opt int 3 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let atoms_arg = Arg.(value & opt int 128 & info [ "atoms" ] ~docv:"N") in
  let steps_arg = Arg.(value & opt int 12 & info [ "steps" ] ~docv:"N") in
  let every_arg =
    let doc = "Checkpoint segment length in steps." in
    Arg.(value & opt int 4 & info [ "every" ] ~docv:"STEPS" ~doc)
  in
  let limit_arg =
    let doc = "Sweep only the first $(docv) op indices (default: all)." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"K" ~doc)
  in
  let verbose_arg =
    let doc = "Per-trial progress on stderr." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let action dir mode jobs atoms steps every limit verbose =
    let cfg =
      { Mdserve.Crashcheck.cc_dir = dir; cc_mode = mode; cc_jobs = jobs;
        cc_atoms = atoms; cc_steps = steps; cc_every = every;
        cc_limit = limit; cc_verbose = verbose }
    in
    match Mdserve.Crashcheck.run cfg with
    | Ok summary -> print_endline summary
    | Error msg ->
      Printf.eprintf "mdsim: crashcheck: %s\n" msg;
      exit 1
  in
  let doc =
    "Exhaustive crash-point consistency sweep: run a reference \
     serve/run scenario counting every durable I/O operation through \
     the Mdio shim, then re-run it once per operation index with a \
     simulated process death armed there, recover with \
     $(b,--resume-queue) semantics, and verify no acked job is lost or \
     duplicated and every artifact converges byte-identically."
  in
  Cmd.v (Cmd.info "crashcheck" ~doc)
    Term.(
      const action $ dir_arg $ mode_arg $ jobs_arg $ atoms_arg $ steps_arg
      $ every_arg $ limit_arg $ verbose_arg)

let main_cmd =
  let doc =
    "Reproduction of 'Analysis of a Computational Biology Simulation \
     Technique on Emerging Processing Architectures' (IPDPS 2007)"
  in
  Cmd.group (Cmd.info "mdsim" ~version:"1.0.0" ~doc)
    [ run_cmd; experiment_cmd; profile_cmd; list_cmd; devices_cmd;
      tail_cmd; report_cmd; serve_cmd; job_cmd; crashcheck_cmd ]

let () = exit (Cmd.eval main_cmd)
