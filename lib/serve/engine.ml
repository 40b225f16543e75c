(* The serve engine: a fair round-robin scheduler that drives many
   checkpointed jobs through the segmented runner, one segment per tick.

   Everything is single-threaded and cooperative — the daemon alternates
   between accepting one socket request and running one segment — so all
   job bookkeeping happens between segments, which is also the only
   moment a job's state is durable.  Each job runs with its own
   process-global fault-plan/counter/telemetry state swapped in around
   the segment ([swap_in]/[swap_out]); the checkpoint layer's
   [absorb_segment] captures that state back into the job's [Mdckpt.t],
   so swapping out is free and a kill -9 between (or during) segments
   loses nothing the ledger claims.

   Robustness policy per job:
   - deadline: a host-seconds budget across all its segments, enforced
     with {!Sim_util.Deadline} per segment on the remaining budget;
     expiry finalizes the job [degraded].
   - fault death ({!Mdfault.Unrecovered}): bounded retries with
     exponential backoff.  The segment restarts from its durable input
     checkpoint, but with the {e advanced} fault-stream state captured
     after the failure — fresh draws, not a deterministic replay of the
     same death.  Exhausted retries finalize the job [failed].
   - invariant violations: the segment is re-executed from its input
     checkpoint up to 2 times (matching the single-shot runner), then
     the job is finalized [failed]. *)

module Runner = Mdckpt.Runner
module Run_result = Mdports.Run_result

type config = {
  cfg_dir : string;     (* serve root: ledger.jsonl + jobs/<id>/ *)
  cfg_max_queue : int;  (* admission bound on live (non-terminal) jobs *)
  cfg_retries : int;    (* fault-death retry budget per job *)
  cfg_backoff_s : float;(* base retry backoff, doubled per attempt *)
  cfg_resume : bool;    (* replay an existing ledger instead of failing *)
}

type job = {
  j_spec : Ledger.jobspec;
  j_dir : string;                        (* jobs/<id>, artifacts land here *)
  mutable j_status : string;  (* queued|running|ok|recovered|degraded|
                                 failed|cancelled *)
  mutable j_state : Mdckpt.t option;     (* in-memory between segments *)
  j_cfg : Runner.config option;  (* the spec's run; None only for a job
                                    adopted finished or unrunnable *)
  mutable j_completed : int;
  mutable j_attempts : int;              (* fault-death retries used *)
  mutable j_inv_retries : int;           (* invariant re-executions used *)
  mutable j_eligible : float;            (* backoff: host time gate *)
  mutable j_spent : float;               (* host seconds consumed *)
  mutable j_lock : Mdckpt.Lock.t option; (* job-dir guard, held to terminal *)
  mutable j_error : string option;       (* reason for degraded/failed *)
}

type t = {
  e_cfg : config;
  e_lock : Mdckpt.Lock.t;                (* serve-dir single-writer guard *)
  e_ledger : Ledger.writer;
  e_jobs : (string, job) Hashtbl.t;
  mutable e_order : string list;         (* submit order, oldest first *)
  mutable e_tenants : string list;       (* first-seen order *)
  mutable e_rr : int;                    (* round-robin cursor *)
  mutable e_active : (string * int) option; (* job id * remaining quantum *)
  mutable e_draining : bool;
  mutable e_auto : int;                  (* auto job-id counter *)
  mutable e_closed : bool;
}

let terminal j =
  match j.j_status with "queued" | "running" -> false | _ -> true

let jobs_in_order t =
  (* e_order is newest-first; rev_map restores submit order *)
  List.rev_map (fun id -> Hashtbl.find t.e_jobs id) t.e_order

let live_count t =
  List.length (List.filter (fun j -> not (terminal j)) (jobs_in_order t))

let job_dir t id = Filename.concat (Filename.concat t.e_cfg.cfg_dir "jobs") id
let ledger_path dir = Filename.concat dir "ledger.jsonl"

(* --- spec validation and runner configs --- *)

(* The run a spec asks for, or why it cannot go as requested.  The
   geometry and force-engine half is [Force_path.setup], the same
   decision the CLI makes; the skin is checked for every engine because
   the ledger records it. *)
let config_of_spec ~dir (js : Ledger.jobspec) =
  let err fmt = Printf.ksprintf (fun s -> Error ("invalid: " ^ s)) fmt in
  if js.Ledger.js_steps <= 0 then err "steps must be positive"
  else if js.Ledger.js_every <= 0 then err "every must be positive"
  else if js.Ledger.js_keep <= 0 then err "keep must be positive"
  else if js.Ledger.js_priority <= 0 || js.Ledger.js_priority > 64 then
    err "priority must be in 1..64"
  else if
    (not (Float.is_finite js.Ledger.js_temperature))
    || js.Ledger.js_temperature < 0.0
  then err "temperature must be finite and non-negative"
  else if js.Ledger.js_tel_every <= 0 then err "tel_every must be positive"
  else
    match
      ( Runner.device_of_name js.Ledger.js_device,
        Mdports.Force_path.setup ~engine:js.Ledger.js_engine
          ~skin:js.Ledger.js_skin ~n:js.Ledger.js_atoms
          ~density:js.Ledger.js_density (),
        (match js.Ledger.js_deadline with
        | Some d when (not (Float.is_finite d)) || d <= 0.0 ->
          Error "deadline must be finite and positive"
        | _ -> Ok ()),
        (match js.Ledger.js_faults with
        | None -> Ok ()
        | Some text -> (
          match Mdfault.parse_spec text with
          | Ok _ -> Ok ()
          | Error msg -> Error (Printf.sprintf "fault spec %S: %s" text msg))
        ) )
    with
    | Error msg, _, _, _ | _, Error msg, _, _ | _, _, Error msg, _
    | _, _, _, Error msg ->
      Error ("invalid: " ^ msg)
    | Ok device, Ok force_path, Ok (), Ok () ->
      Ok
        { Runner.cfg_device = device;
          cfg_atoms = js.Ledger.js_atoms;
          cfg_steps = js.Ledger.js_steps;
          cfg_seed = js.Ledger.js_seed;
          cfg_density = js.Ledger.js_density;
          cfg_temperature = js.Ledger.js_temperature;
          cfg_force_path = force_path;
          cfg_every = js.Ledger.js_every;
          cfg_keep = js.Ledger.js_keep;
          cfg_dir = Filename.concat dir "ckpt" }

(* --- per-job process-global state swap --- *)

let swap_in job =
  let js = job.j_spec in
  (match job.j_state with
  | Some st ->
    (match st.Mdckpt.fault with
    | Some fs -> Mdfault.restore_state fs
    | None -> Mdfault.uninstall ());
    Mdfault.set_guard_restores st.Mdckpt.guard_restores
  | None ->
    (match js.Ledger.js_faults with
    | Some text -> (
      match Mdfault.parse_spec text with
      | Ok spec -> Mdfault.install spec
      | Error _ -> Mdfault.uninstall () (* unreachable: validated *))
    | None -> Mdfault.uninstall ());
    Mdfault.set_guard_restores 0);
  Mdprof.clear ();
  if js.Ledger.js_telemetry then begin
    (match job.j_state with
    | Some st -> (
      match st.Mdckpt.counters with
      | Some cells -> Mdprof.restore_cells cells
      | None -> Mdprof.enable ())
    | None -> Mdprof.enable ());
    Mdtel.Mux.open_job
      ~path:(Filename.concat job.j_dir "telemetry.jsonl")
      ~every:js.Ledger.js_tel_every ~total:js.Ledger.js_steps
      ~completed:job.j_completed
  end

let swap_out job =
  if job.j_spec.Ledger.js_telemetry then Mdtel.Mux.close_job ();
  Mdfault.uninstall ();
  Mdfault.set_guard_restores 0;
  Mdprof.clear ()

(* --- finalization --- *)

let release_job_lock job =
  match job.j_lock with
  | Some lk ->
    job.j_lock <- None;
    Mdckpt.Lock.release lk
  | None -> ()

let clear_active t job =
  match t.e_active with
  | Some (id, _) when id = job.j_spec.Ledger.js_id -> t.e_active <- None
  | _ -> ()

let set_terminal t job status =
  job.j_status <- status;
  job.j_state <- None; (* the system is large; keep only the summary *)
  clear_active t job;
  release_job_lock job

(* Informational appends (terminal records, retry/resume/drain notices)
   must not take the daemon down when the ledger disk is failing: the
   in-memory state is already correct, and a restart replays the ledger
   and re-runs the job to the same terminal state from its durable
   checkpoint.  [Mdio.Crashed] is not an error — it propagates. *)
let append_noted t ev =
  try Ledger.append t.e_ledger ev
  with Ledger.Write_failed msg ->
    Printf.eprintf "mdsim: serve: ledger: %s\n%!" msg

(* Completed run: artifacts first (report/metrics match the single-shot
   CLI byte for byte), then the terminal ledger record.  Runs inside the
   job's swap window — the fault summary and counters read the job's own
   global state. *)
let finalize_done t job (r : Run_result.t) =
  let js = job.j_spec in
  let fs = Mdfault.summary () in
  let status =
    if
      fs.Mdfault.injected > 0 || job.j_attempts > 0
      || Mdfault.guard_restores () > 0
    then Harness.Report.Recovered
    else Harness.Report.Ok
  in
  let name = Harness.Report.status_name status in
  let report =
    Run_result.render_summary r
    ^
    if Mdfault.active () && fs.Mdfault.injected > 0 then
      "  " ^ Mdfault.summary_line fs ^ "\n"
    else ""
  in
  let write name data =
    Mdio.write_atomic ~fsync_dir:false
      ~path:(Filename.concat job.j_dir name) data
  in
  write "report.txt" report;
  write "metrics.json" (Run_result.metrics_json r);
  if js.Ledger.js_telemetry then write "counters.json" (Mdprof.to_json ());
  if js.Ledger.js_faults <> None then
    write "faults.json" (Mdfault.events_json ());
  job.j_completed <- js.Ledger.js_steps;
  set_terminal t job name;
  append_noted t
    (Ledger.Done
       { ev_job = js.Ledger.js_id; ev_status = name;
         ev_completed = job.j_completed })

let finalize_degraded t job ~reason =
  job.j_error <- Some reason;
  set_terminal t job "degraded";
  append_noted t
    (Ledger.Degraded
       { ev_job = job.j_spec.Ledger.js_id; ev_reason = reason;
         ev_completed = job.j_completed })

let finalize_failed t job ~reason =
  job.j_error <- Some reason;
  set_terminal t job "failed";
  append_noted t
    (Ledger.Failed
       { ev_job = job.j_spec.Ledger.js_id; ev_reason = reason;
         ev_completed = job.j_completed })

(* --- scheduling --- *)

let runnable ~now j =
  (not (terminal j)) && j.j_eligible <= now

let has_runnable t ~now =
  (not t.e_draining)
  && List.exists (runnable ~now) (jobs_in_order t)

let next_eligible t =
  List.fold_left
    (fun acc j ->
      if terminal j then acc
      else match acc with
        | None -> Some j.j_eligible
        | Some e -> Some (Float.min e j.j_eligible))
    None (jobs_in_order t)

let tenant_first_runnable t tenant ~now =
  List.find_opt
    (fun j -> j.j_spec.Ledger.js_tenant = tenant && runnable ~now j)
    (jobs_in_order t)

(* Fair pick: tenants take turns in first-seen order; within a tenant,
   jobs run in submit order; a picked job keeps the slot for
   [priority] consecutive segments (its quantum) before the cursor
   moves on. *)
let rec pick t ~now =
  match t.e_active with
  | Some (id, left) when left > 0 -> (
    match Hashtbl.find_opt t.e_jobs id with
    | Some j when runnable ~now j -> Some j
    | _ ->
      t.e_active <- None;
      pick t ~now)
  | Some _ ->
    t.e_active <- None;
    pick t ~now
  | None ->
    let nt = List.length t.e_tenants in
    let rec go i =
      if i >= nt then None
      else
        let tenant = List.nth t.e_tenants ((t.e_rr + i) mod nt) in
        match tenant_first_runnable t tenant ~now with
        | Some j ->
          t.e_rr <- (t.e_rr + i + 1) mod nt;
          t.e_active <-
            Some (j.j_spec.Ledger.js_id, j.j_spec.Ledger.js_priority);
          Some j
        | None -> go (i + 1)
    in
    if nt = 0 then None else go 0

let consume_quantum t job =
  match t.e_active with
  | Some (id, left) when id = job.j_spec.Ledger.js_id ->
    if left <= 1 then t.e_active <- None
    else t.e_active <- Some (id, left - 1)
  | _ -> ()

(* --- running one segment --- *)

let reload_from_checkpoint (cfg : Runner.config) =
  match Mdckpt.load_latest ~dir:cfg.Runner.cfg_dir with
  | Ok (st, _) -> Some st
  | Error _ -> None

(* Bounded-retry restart from the durable input checkpoint, shared by
   fault deaths and storage errors.  The restarted segment carries the
   {e post}-failure fault-stream positions: fresh draws, not a
   deterministic replay of the same death. *)
let retry_with_backoff t job cfg ~now ~reason =
  job.j_attempts <- job.j_attempts + 1;
  if job.j_attempts > t.e_cfg.cfg_retries then finalize_failed t job ~reason
  else
    match reload_from_checkpoint cfg with
    | None -> finalize_failed t job ~reason
    | Some st0 ->
      job.j_state <-
        Some
          { st0 with
            Mdckpt.fault = Mdfault.capture_state ();
            guard_restores = Mdfault.guard_restores () };
      job.j_completed <- st0.Mdckpt.completed;
      let backoff =
        t.e_cfg.cfg_backoff_s *. (2.0 ** float_of_int (job.j_attempts - 1))
      in
      job.j_eligible <- now +. backoff;
      clear_active t job;
      append_noted t
        (Ledger.Retrying
           { ev_job = job.j_spec.Ledger.js_id; ev_attempt = job.j_attempts;
             ev_reason = reason })

let run_segment t job cfg ~now =
  let js = job.j_spec in
  swap_in job;
  Fun.protect ~finally:(fun () -> swap_out job) @@ fun () ->
  job.j_status <- "running";
  let budget =
    match js.Ledger.js_deadline with
    | None -> None
    | Some d -> Some (d -. job.j_spent)
  in
  match budget with
  | Some b when b <= 0.0 ->
    finalize_degraded t job
      ~reason:
        (Printf.sprintf "deadline: %gs budget exhausted at step %d/%d"
           (Option.get js.Ledger.js_deadline)
           job.j_completed js.Ledger.js_steps)
  | _ -> (
    let t0 = Unix.gettimeofday () in
    (* Everything that can touch storage — the gen-0 first touch, the
       segment save, artifact writes, the segment ledger record — sits
       inside this try: an injected (or real) I/O error routes to the
       same bounded-retry path as a fault death, because in both cases
       the durable input checkpoint is intact and nothing was acked.
       [Mdio.Crashed] is deliberately NOT caught — a dead process does
       not recover itself. *)
    let outcome =
      try
        let st =
          match job.j_state with
          | Some st -> st
          | None ->
            (* First touch: build step-0 state (the fault plan is
               already swapped in, so its capture lands in the
               checkpoint) and make generation 0 durable before any
               work — resumable however early the daemon dies. *)
            let st = Runner.prepare cfg in
            ignore (Mdckpt.save ~dir:cfg.Runner.cfg_dir st);
            job.j_state <- Some st;
            st
        in
        let step =
          match budget with
          | None -> Runner.segment_step cfg st
          | Some b ->
            Sim_util.Deadline.with_budget ~seconds:b (fun () ->
                Runner.segment_step cfg st)
        in
        (match step with
        | Runner.Seg_complete r -> finalize_done t job r
        | Runner.Seg_checkpointed (st', _path) ->
          (* Checkpoint is durable; only now may the ledger claim it. *)
          job.j_state <- Some st';
          job.j_completed <- st'.Mdckpt.completed;
          Ledger.append t.e_ledger
            (Ledger.Segment
               { ev_job = js.Ledger.js_id;
                 ev_completed = st'.Mdckpt.completed;
                 ev_total = st'.Mdckpt.total_steps });
          if st'.Mdckpt.completed >= st'.Mdckpt.total_steps then
            finalize_done t job (Runner.result_of_state st')
          else consume_quantum t job);
        `Done
      with
      | Sim_util.Deadline.Expired _ -> `Deadline
      | Mdfault.Unrecovered f -> `Unrecovered f
      | Mdcore.Verlet.Invariant_violation msg -> `Invariant msg
      | Unix.Unix_error (e, fn, _) ->
        `Io (Printf.sprintf "storage: %s in %s" (Unix.error_message e) fn)
      | Ledger.Write_failed msg -> `Io msg
    in
    job.j_spent <- job.j_spent +. (Unix.gettimeofday () -. t0);
    match outcome with
    | `Done -> ()
    | `Deadline ->
      finalize_degraded t job
        ~reason:
          (Printf.sprintf "deadline: %gs budget exhausted at step %d/%d"
             (Option.get js.Ledger.js_deadline)
             job.j_completed js.Ledger.js_steps)
    | `Invariant msg ->
      (* Re-execute from the durable input checkpoint, like the
         single-shot runner, before giving up. *)
      if job.j_inv_retries >= 2 then
        finalize_failed t job ~reason:("invariant violation: " ^ msg)
      else (
        job.j_inv_retries <- job.j_inv_retries + 1;
        match reload_from_checkpoint cfg with
        | Some st0 -> job.j_state <- Some st0
        | None ->
          finalize_failed t job
            ~reason:("invariant violation (no checkpoint to retry): " ^ msg))
    | `Unrecovered f ->
      retry_with_backoff t job cfg ~now ~reason:(Mdfault.failure_message f)
    | `Io reason -> retry_with_backoff t job cfg ~now ~reason)

(* --- public operations --- *)

let tick t ~now =
  if t.e_closed || t.e_draining then false
  else
    match pick t ~now with
    | None -> false
    | Some job ->
      (* A picked job is live, so it has a config. *)
      Option.iter (fun cfg -> run_segment t job cfg ~now) job.j_cfg;
      true

let add_job t job =
  let id = job.j_spec.Ledger.js_id in
  Hashtbl.replace t.e_jobs id job;
  t.e_order <- id :: t.e_order;
  if not (List.mem job.j_spec.Ledger.js_tenant t.e_tenants) then
    t.e_tenants <- t.e_tenants @ [ job.j_spec.Ledger.js_tenant ]

let fresh_id t =
  let rec go () =
    t.e_auto <- t.e_auto + 1;
    let id = Printf.sprintf "job-%d" t.e_auto in
    if Hashtbl.mem t.e_jobs id then go () else id
  in
  go ()

let submit t (js : Ledger.jobspec) =
  if t.e_closed then Error "rejected: engine is shut down"
  else if t.e_draining then Error "rejected: draining, not accepting jobs"
  else if live_count t >= t.e_cfg.cfg_max_queue then
    Error
      (Printf.sprintf "rejected: overload (%d live jobs, max %d)"
         (live_count t) t.e_cfg.cfg_max_queue)
  else
    let js =
      if js.Ledger.js_id = "" then { js with Ledger.js_id = fresh_id t }
      else js
    in
    let id = js.Ledger.js_id in
    if Hashtbl.mem t.e_jobs id then
      Error (Printf.sprintf "rejected: duplicate job id %S" id)
    else if String.exists (fun c -> c = '/' || c = '\x00') id || id = ""
    then Error "rejected: job id must be non-empty and slash-free"
    else
      let dir = job_dir t id in
      match config_of_spec ~dir js with
      | Error msg -> Error msg
      | Ok cfg -> (
        match Mdckpt.Lock.guard_dir ~dir with
        | Error msg -> Error (Printf.sprintf "rejected: %s" msg)
        | Ok lk -> (
          let job =
            { j_spec = js; j_dir = dir; j_status = "queued";
              j_state = None; j_cfg = Some cfg; j_completed = 0;
              j_attempts = 0; j_inv_retries = 0; j_eligible = 0.0;
              j_spent = 0.0; j_lock = Some lk; j_error = None }
          in
          (* Durable-before-acked: the submit record must survive a
             crash before the job enters the queue, otherwise a client
             holds an ack for a job no restart will ever re-adopt.  A
             ledger that cannot be written is a rejection the client can
             retry, not a silent data loss. *)
          match Ledger.append t.e_ledger (Ledger.Submitted js) with
          | () ->
            add_job t job;
            Ok (id, dir)
          | exception e ->
            Mdckpt.Lock.release lk;
            (match e with
            | Ledger.Write_failed msg -> Error ("rejected: " ^ msg)
            | e -> raise e)))

let cancel t id =
  match Hashtbl.find_opt t.e_jobs id with
  | None -> Error (Printf.sprintf "no such job %S" id)
  | Some job ->
    if terminal job then
      Error (Printf.sprintf "job %S already %s" id job.j_status)
    else begin
      set_terminal t job "cancelled";
      append_noted t
        (Ledger.Cancelled { ev_job = id; ev_completed = job.j_completed });
      Ok job.j_completed
    end

let job_json j =
  let js = j.j_spec in
  Printf.sprintf
    "{\"id\":%s,\"tenant\":%s,\"status\":%s,\"completed\":%d,\"total\":%d,\
     \"attempts\":%d,\"dir\":%s%s}"
    (Mdobs.json_string js.Ledger.js_id)
    (Mdobs.json_string js.Ledger.js_tenant)
    (Mdobs.json_string j.j_status)
    j.j_completed js.Ledger.js_steps j.j_attempts
    (Mdobs.json_string j.j_dir)
    (match j.j_error with
    | Some e -> ",\"error\":" ^ Mdobs.json_string e
    | None -> "")

let status_json t = function
  | Some id -> (
    match Hashtbl.find_opt t.e_jobs id with
    | None -> Error (Printf.sprintf "no such job %S" id)
    | Some j -> Ok (Printf.sprintf "{\"ok\":true,\"job\":%s}" (job_json j)))
  | None ->
    Ok
      (Printf.sprintf "{\"ok\":true,\"draining\":%b,\"jobs\":[%s]}"
         t.e_draining
         (String.concat "," (List.map job_json (jobs_in_order t))))

let tail t ~job ~limit =
  let path = ledger_path t.e_cfg.cfg_dir in
  let data = if Sys.file_exists path then Ledger.read_file path else "" in
  Ledger.tail_lines data ~job ~limit

let request_drain t = t.e_draining <- true
let draining t = t.e_draining

(* Graceful shutdown: every live job gets a [drained] record — its
   newest checkpoint is already durable, so a later [--resume-queue]
   restart re-adopts it — then the ledger and every lock are released. *)
let shutdown t =
  if not t.e_closed then begin
    t.e_closed <- true;
    List.iter
      (fun j ->
        if not (terminal j) then begin
          append_noted t
            (Ledger.Drained
               { ev_job = j.j_spec.Ledger.js_id;
                 ev_completed = j.j_completed });
          release_job_lock j
        end)
      (jobs_in_order t);
    Ledger.close_writer t.e_ledger;
    Mdckpt.Lock.release t.e_lock
  end

(* Test hook: drop everything on the floor — no drained records, no
   flushes beyond what each append already fsynced — leaving exactly the
   on-disk state a kill -9 would.  (Locks are released only because the
   in-process registry must free them for a restarted engine in the same
   test process; a real SIGKILL releases them as a side effect of
   process death anyway.) *)
let abandon t =
  if not t.e_closed then begin
    t.e_closed <- true;
    List.iter release_job_lock (jobs_in_order t);
    Ledger.close_writer t.e_ledger;
    Mdckpt.Lock.release t.e_lock
  end

(* --- construction and queue resume --- *)

let adopt t (v : Ledger.job_view) =
  let js = v.Ledger.v_spec in
  let id = js.Ledger.js_id in
  let dir = job_dir t id in
  match Mdckpt.Lock.guard_dir ~dir with
  | Error msg ->
    Printf.eprintf "mdsim: serve: cannot adopt job %s: %s\n%!" id msg
  | Ok lk -> (
    let job cfg =
      { j_spec = js; j_dir = dir; j_status = "queued"; j_state = None;
        j_cfg = cfg; j_completed = v.Ledger.v_completed;
        j_attempts = v.Ledger.v_attempts; j_inv_retries = 0;
        j_eligible = 0.0; j_spent = 0.0; j_lock = Some lk; j_error = None }
    in
    match v.Ledger.v_terminal with
    | Some status ->
      (* already finished before the crash: keep it for status queries,
         release the lock *)
      let job = job None in
      job.j_status <- status;
      release_job_lock job;
      add_job t job
    | None -> (
      match config_of_spec ~dir js with
      | Error reason ->
        (* A ledger can hold a spec this build rejects (an earlier build
           checked less): end the job rather than let its first segment
           raise out of [tick]. *)
        let job = job None in
        add_job t job;
        finalize_failed t job ~reason
      | Ok cfg ->
        (* Re-adopt at the newest valid checkpoint generation; corrupt or
           torn generations fall back transparently inside load_latest.
           A job killed before generation 0 restarts from scratch. *)
        let job = job (Some cfg) in
        (match Mdckpt.load_latest ~dir:cfg.Runner.cfg_dir with
        | Ok (st, _) ->
          job.j_state <- Some st;
          job.j_completed <- st.Mdckpt.completed
        | Error _ -> job.j_completed <- 0);
        add_job t job;
        append_noted t
          (Ledger.Resumed { ev_job = id; ev_completed = job.j_completed })))

let create cfg =
  let dir = cfg.cfg_dir in
  (match Mdckpt.Lock.guard_dir ~dir with
  | Error msg -> Error (Printf.sprintf "serve dir %s: %s" dir msg)
  | Ok lock ->
    let lpath = ledger_path dir in
    let existing = Sys.file_exists lpath in
    if existing && not cfg.cfg_resume then begin
      Mdckpt.Lock.release lock;
      Error
        (Printf.sprintf
           "%s already has a ledger; restart with --resume-queue to adopt \
            its jobs, or point --dir at a fresh directory"
           dir)
    end
    else begin
      (* Exception safety for the in-process crash sweep: a simulated
         death (or real error) mid-construction must not leave the serve
         lock, job locks, or the ledger fd registered — a revived trial
         reopens the same directory in the same process. *)
      match
        let replay =
          if existing then Ledger.replay_file lpath
          else { Ledger.r_jobs = []; r_next_seq = 0; r_notes = [] }
        in
        List.iter
          (fun note -> Printf.eprintf "mdsim: serve: ledger: %s\n%!" note)
          replay.Ledger.r_notes;
        let t =
          { e_cfg = cfg; e_lock = lock;
            e_ledger =
              Ledger.open_writer ~path:lpath
                ~next_seq:replay.Ledger.r_next_seq;
            e_jobs = Hashtbl.create 16; e_order = []; e_tenants = [];
            e_rr = 0; e_active = None; e_draining = false; e_auto = 0;
            e_closed = false }
        in
        (try List.iter (adopt t) replay.Ledger.r_jobs
         with e ->
           List.iter release_job_lock (jobs_in_order t);
           Ledger.close_writer t.e_ledger;
           raise e);
        t
      with
      | t -> Ok t
      | exception e ->
        Mdckpt.Lock.release lock;
        raise e
    end)
