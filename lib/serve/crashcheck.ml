(* Exhaustive crash-point consistency sweep (see crashcheck.mli).

   A reference pass runs the scenario with Mdio counting every durable
   I/O operation; the sweep then re-runs it once per op index k with a
   simulated process death armed at k, recovers the way the daemon
   would (`--resume-queue` / `Runner.resume`), and checks the recovered
   end state against the reference — byte for byte where the repo
   promises bitwise convergence.  Because Mdio's schedule is
   deterministic, index k always dies at the same syscall, so the sweep
   visits every window between two durable operations exactly once. *)

module Runner = Mdckpt.Runner

type mode = Run | Serve

type cfg = {
  cc_dir : string;
  cc_mode : mode;
  cc_jobs : int;
  cc_atoms : int;
  cc_steps : int;
  cc_every : int;
  cc_limit : int option;
  cc_verbose : bool;
}

let default_cfg ~dir =
  { cc_dir = dir; cc_mode = Serve; cc_jobs = 3; cc_atoms = 128;
    cc_steps = 12; cc_every = 4; cc_limit = None; cc_verbose = false }

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_opt path = if Sys.file_exists path then Some (read_file path) else None

(* ------------------------------------------------------------------ *)
(* Serve-mode scenario                                                 *)
(* ------------------------------------------------------------------ *)

(* A deliberately heterogeneous little queue: two tenants, distinct
   seeds, and one job with telemetry+counters enabled so the sweep
   covers the Mdtel/Mdprof persistence paths too. *)
let specs cfg =
  List.init cfg.cc_jobs (fun i ->
      { Ledger.js_id = Printf.sprintf "cc-%d" (i + 1);
        js_tenant = (if i mod 2 = 0 then "t0" else "t1");
        js_priority = 1;
        js_device = "opteron";
        js_atoms = cfg.cc_atoms;
        js_steps = cfg.cc_steps;
        js_seed = 11 + i;
        js_density = 0.8;
        js_temperature = 1.0;
        js_engine = "default";
        js_skin = 0.4;
        js_every = cfg.cc_every;
        js_keep = 8;
        js_faults = None;
        js_deadline = None;
        js_telemetry = (i = 0);
        js_tel_every = cfg.cc_every })

let engine_cfg ~dir ~resume =
  { Engine.cfg_dir = dir; cfg_max_queue = 64; cfg_retries = 2;
    cfg_backoff_s = 0.0; cfg_resume = resume }

(* Synthetic clock far past every backoff gate, like the serve tests. *)
let quiesce eng =
  let rec go n =
    if n > 2000 then failf "engine did not quiesce within 2000 ticks"
    else if Engine.tick eng ~now:(1e9 +. float_of_int n) then go (n + 1)
  in
  go 0

let job_known eng id =
  match Engine.status_json eng (Some id) with Ok _ -> true | Error _ -> false

(* What the recovered state must reproduce, captured once from the
   uninterrupted reference pass. *)
type snapshot = {
  snap_report : string option;
  snap_metrics : string option;
  snap_counters : string option;
  snap_tel : string option; (* virtual projection *)
}

let snapshot ~dir (js : Ledger.jobspec) =
  let jd = Filename.concat (Filename.concat dir "jobs") js.Ledger.js_id in
  let p name = Filename.concat jd name in
  { snap_report = read_opt (p "report.txt");
    snap_metrics = read_opt (p "metrics.json");
    snap_counters =
      (if js.Ledger.js_telemetry then read_opt (p "counters.json") else None);
    snap_tel =
      (if js.Ledger.js_telemetry then
         Option.map Mdtel.virtual_projection (read_opt (p "telemetry.jsonl"))
       else None) }

let check_eq ~what ~id refv gotv =
  match (refv, gotv) with
  | None, None -> ()
  | Some _, None -> failf "%s: %s missing after recovery" id what
  | None, Some _ -> failf "%s: unexpected %s after recovery" id what
  | Some a, Some b ->
    if not (String.equal a b) then
      failf "%s: %s diverged from the reference run" id what

(* Ledger-level durability invariants: an intact file (the recovery
   open truncated any torn tail), exactly one [submitted] and exactly
   one terminal [done] per job — acked work is neither lost nor
   re-acked — and monotone per-job segment progress. *)
let check_ledger ~dir specs =
  let path = Filename.concat dir "ledger.jsonl" in
  let data = if Sys.file_exists path then read_file path else "" in
  let events =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match Ledger.verify_line line with
          | Error msg -> failf "ledger: corrupt record survived: %s" msg
          | Ok j -> (
            match Ledger.event_of_json j with
            | Ok ev -> Some ev
            | Error msg -> failf "ledger: undecodable record: %s" msg))
      (String.split_on_char '\n' data)
  in
  List.iter
    (fun (js : Ledger.jobspec) ->
      let id = js.Ledger.js_id in
      let count p = List.length (List.filter p events) in
      let submits =
        count (function
          | Ledger.Submitted s -> s.Ledger.js_id = id
          | _ -> false)
      in
      let dones =
        count (function
          | Ledger.Done { ev_job; _ } -> ev_job = id
          | _ -> false)
      in
      let bad =
        count (function
          | Ledger.Failed { ev_job; _ }
          | Ledger.Degraded { ev_job; _ }
          | Ledger.Cancelled { ev_job; _ } -> ev_job = id
          | _ -> false)
      in
      if submits <> 1 then failf "%s: %d submitted records (want 1)" id submits;
      if dones <> 1 then failf "%s: %d done records (want 1)" id dones;
      if bad <> 0 then failf "%s: unexpected failed/degraded/cancelled" id;
      let segs =
        List.filter_map
          (function
            | Ledger.Segment { ev_job; ev_completed; _ } when ev_job = id ->
              Some ev_completed
            | _ -> None)
          events
      in
      ignore
        (List.fold_left
           (fun prev c ->
             if c < prev then failf "%s: segment progress went backwards" id;
             c)
           0 segs))
    specs

let check_serve_state ~dir specs refs =
  check_ledger ~dir specs;
  List.iter2
    (fun (js : Ledger.jobspec) rs ->
      let id = js.Ledger.js_id in
      let got = snapshot ~dir js in
      check_eq ~what:"report.txt" ~id rs.snap_report got.snap_report;
      check_eq ~what:"metrics.json" ~id rs.snap_metrics got.snap_metrics;
      check_eq ~what:"counters.json" ~id rs.snap_counters got.snap_counters;
      check_eq ~what:"telemetry projection" ~id rs.snap_tel got.snap_tel)
    specs refs

(* One uninterrupted pass: create, submit everything, drive to
   quiescence, graceful shutdown.  Returns the acked ids. *)
let serve_pass ~dir ~resume specs =
  mkdir_p dir;
  match Engine.create (engine_cfg ~dir ~resume) with
  | Error msg -> failf "engine create: %s" msg
  | Ok eng ->
    let acked =
      List.filter_map
        (fun (js : Ledger.jobspec) ->
          if resume && job_known eng js.Ledger.js_id then None
          else
            match Engine.submit eng js with
            | Ok (id, _) -> Some id
            | Error msg -> failf "submit %s: %s" js.Ledger.js_id msg)
        specs
    in
    quiesce eng;
    Engine.shutdown eng;
    acked

(* One sweep trial: re-run the scenario with death armed at op [k],
   then recover exactly as the daemon would.  Close is a counted op but
   never a crash point, so some indices complete without dying — those
   trials degenerate to a second reference pass and must still verify. *)
let serve_trial specs refs ~k ~dir =
  rm_rf dir;
  mkdir_p dir;
  Mdio.reset ();
  Mdio.set_crash_point (Some k);
  let eng_ref = ref None in
  let acked = ref [] in
  let crashed =
    try
      (match Engine.create (engine_cfg ~dir ~resume:false) with
      | Error msg -> failf "trial create: %s" msg
      | Ok eng ->
        eng_ref := Some eng;
        List.iter
          (fun (js : Ledger.jobspec) ->
            match Engine.submit eng js with
            | Ok (id, _) -> acked := id :: !acked
            | Error msg -> failf "trial submit %s: %s" js.Ledger.js_id msg)
          specs;
        quiesce eng;
        Engine.shutdown eng;
        eng_ref := None);
      false
    with Mdio.Crashed _ -> true
  in
  if crashed then begin
    (* the kill: drop the engine on the floor, then revive the process *)
    (match !eng_ref with Some eng -> Engine.abandon eng | None -> ());
    Mdio.reset ();
    match Engine.create (engine_cfg ~dir ~resume:true) with
    | Error msg -> failf "recovery create: %s" msg
    | Ok eng ->
      (* every acked job must have been re-adopted from the ledger *)
      List.iter
        (fun id ->
          if not (job_known eng id) then
            failf "acked job %s lost across the crash" id)
        !acked;
      (* unacked submissions are the client's to retry (idempotent) *)
      List.iter
        (fun (js : Ledger.jobspec) ->
          if not (job_known eng js.Ledger.js_id) then
            match Engine.submit eng js with
            | Ok _ -> ()
            | Error msg -> failf "re-submit %s: %s" js.Ledger.js_id msg)
        specs;
      quiesce eng;
      Engine.shutdown eng
  end;
  check_serve_state ~dir specs refs;
  crashed

let sweep_serve cfg =
  let specs = specs cfg in
  let ref_dir = Filename.concat cfg.cc_dir "reference" in
  rm_rf ref_dir;
  mkdir_p ref_dir;
  Mdio.reset ();
  ignore (serve_pass ~dir:ref_dir ~resume:false specs);
  let total_ops = Mdio.op_count () in
  let refs = List.map (snapshot ~dir:ref_dir) specs in
  check_ledger ~dir:ref_dir specs;
  let limit =
    match cfg.cc_limit with
    | Some l -> min l total_ops
    | None -> total_ops
  in
  let crashes = ref 0 in
  for k = 0 to limit - 1 do
    let dir = Filename.concat cfg.cc_dir (Printf.sprintf "trial-%d" k) in
    let crashed =
      try serve_trial specs refs ~k ~dir
      with Check_failed msg ->
        Mdio.reset ();
        failf "op %d/%d: %s (state kept in %s)" k total_ops msg dir
    in
    if crashed then incr crashes;
    if cfg.cc_verbose then
      Printf.eprintf "crashcheck: op %d/%d %s\n%!" k total_ops
        (if crashed then "crashed+recovered" else "completed");
    rm_rf dir
  done;
  Mdio.reset ();
  Printf.sprintf
    "crashcheck serve: %d jobs, %d I/O ops, %d trials (%d died, %d ran \
     through), all recovered bitwise"
    cfg.cc_jobs total_ops limit !crashes (limit - !crashes)

(* ------------------------------------------------------------------ *)
(* Run-mode scenario (single-shot segmented runner)                    *)
(* ------------------------------------------------------------------ *)

let runner_cfg cfg ~dir =
  { Runner.cfg_device = Runner.Opteron;
    cfg_atoms = cfg.cc_atoms;
    cfg_steps = cfg.cc_steps;
    cfg_seed = 11;
    cfg_density = 0.8;
    cfg_temperature = 1.0;
    cfg_force_path = Mdports.Force_path.default;
    cfg_every = cfg.cc_every;
    cfg_keep = 8;
    cfg_dir = dir }

let run_fingerprint (r : Mdports.Run_result.t) =
  Mdports.Run_result.render_summary r
  ^ "\n" ^ Mdports.Run_result.metrics_json r

let sweep_run cfg =
  let ref_dir = Filename.concat cfg.cc_dir "reference" in
  rm_rf ref_dir;
  mkdir_p ref_dir;
  Mdio.reset ();
  let reference =
    match Runner.run (runner_cfg cfg ~dir:ref_dir) with
    | Runner.Complete r -> run_fingerprint r
    | Runner.Suspended s -> failf "reference run suspended: %s" s.sus_reason
  in
  let total_ops = Mdio.op_count () in
  let limit =
    match cfg.cc_limit with
    | Some l -> min l total_ops
    | None -> total_ops
  in
  let crashes = ref 0 in
  for k = 0 to limit - 1 do
    let dir = Filename.concat cfg.cc_dir (Printf.sprintf "trial-%d" k) in
    rm_rf dir;
    mkdir_p dir;
    Mdio.reset ();
    Mdio.set_crash_point (Some k);
    let rcfg = runner_cfg cfg ~dir in
    let outcome =
      match Runner.run rcfg with
      | Runner.Complete r -> run_fingerprint r
      | Runner.Suspended s -> failf "op %d: run suspended: %s" k s.sus_reason
      | exception Mdio.Crashed _ -> (
        incr crashes;
        Mdio.reset ();
        match Runner.resume dir with
        | Ok (Runner.Complete r) -> run_fingerprint r
        | Ok (Runner.Suspended s) ->
          failf "op %d: resume suspended: %s" k s.sus_reason
        | Error _ ->
          (* died before generation 0 was durable: nothing to resume,
             a fresh run is the correct recovery *)
          rm_rf dir;
          mkdir_p dir;
          (match Runner.run rcfg with
          | Runner.Complete r -> run_fingerprint r
          | Runner.Suspended s ->
            failf "op %d: rerun suspended: %s" k s.sus_reason))
    in
    if not (String.equal outcome reference) then begin
      Mdio.reset ();
      failf "op %d/%d: recovered run diverged (state kept in %s)" k total_ops
        dir
    end;
    if cfg.cc_verbose then
      Printf.eprintf "crashcheck: op %d/%d ok\n%!" k total_ops;
    rm_rf dir
  done;
  Mdio.reset ();
  Printf.sprintf
    "crashcheck run: %d I/O ops, %d trials (%d died), all recovered bitwise"
    total_ops limit !crashes

let run cfg =
  if Mdfault.active () then
    Error "crashcheck: a fault plan is active; run it without --faults"
  else
    match
      (match cfg.cc_mode with Serve -> sweep_serve cfg | Run -> sweep_run cfg)
    with
    | summary -> Ok summary
    | exception Check_failed msg ->
      Mdio.reset ();
      Error msg
