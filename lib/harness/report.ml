let render_outcome (o : Experiment.outcome) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ o.title ^ " ==\n\n");
  Buffer.add_string buf (Sim_util.Table.render o.table);
  Buffer.add_string buf "\n\n";
  (match o.figure with
  | Some fig ->
    Buffer.add_string buf fig;
    Buffer.add_string buf "\n\n"
  | None -> ());
  List.iter
    (fun (c : Experiment.check) ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s: %s\n"
           (if c.passed then "PASS" else "FAIL")
           c.name c.detail))
    o.checks;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) o.notes;
  Buffer.contents buf

(* Scope each experiment under its id so the virtual tracks and
   profiling counters its ports create carry deterministic names
   whatever pool worker runs it; the host-clock wall span records where
   real time went.  Scoping matters for counters even without tracing:
   it keeps each experiment's float accumulations in their own cells,
   with one deterministic writer each, instead of racing experiments
   interleaving additions into one shared unscoped total. *)
let run_one ctx (e : Experiment.t) =
  if Mdobs.enabled () then
    Mdobs.with_scope e.id (fun () ->
        let tr = Mdobs.new_track ~clock:Mdobs.Host "wall" in
        Mdobs.host_span tr ~name:e.id (fun () -> e.run ctx))
  else if Mdprof.enabled () || Mdfault.active () then
    Mdobs.with_scope e.id (fun () -> e.run ctx)
  else e.run ctx

(* ------------------------------------------------------------------ *)
(* Classified runs: isolation + graceful degradation                   *)
(* ------------------------------------------------------------------ *)

type status = Ok | Recovered | Degraded | Failed

let status_name = function
  | Ok -> "ok"
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Failed -> "failed"

type classified = {
  outcome : Experiment.outcome;
  status : status;
  error : string option;
  faults : Mdfault.summary;
}

(* The synthesized outcome standing in for an experiment whose run (and
   fault-free fallback) raised: the report stays complete, the failure
   is a failed check, and nothing downstream has to special-case it. *)
let failure_outcome (e : Experiment.t) msg =
  let table = Sim_util.Table.create ~headers:[ "status"; "detail" ] in
  Sim_util.Table.add_row table [ "failed"; msg ];
  { Experiment.id = e.id;
    title = e.title;
    table;
    checks =
      [ { Experiment.name = "completed"; passed = false; detail = msg } ];
    notes = [ "experiment aborted: " ^ msg ];
    figure = None;
    virtual_seconds = [] }

(* Fault streams are scoped under the experiment id, so the summary over
   the [id ^ "/"] prefix is exactly this experiment's injected faults.
   (Faults hitting ctx-memoized shared artifacts live under "ctx/" and
   are not attributed to a single experiment.) *)
let fault_summary_for (e : Experiment.t) =
  Mdfault.summary ~prefix:(e.Experiment.id ^ "/") ()

(* The placeholder for an experiment the deadline supervisor had to
   abort.  Built only from the configured budget (never the elapsed host
   time), so the entry — and with it the whole report — stays
   byte-identical however late the abort landed. *)
let deadline_outcome (e : Experiment.t) msg =
  let table = Sim_util.Table.create ~headers:[ "status"; "detail" ] in
  Sim_util.Table.add_row table [ "degraded"; msg ];
  { Experiment.id = e.id;
    title = e.title;
    table;
    checks =
      [ { Experiment.name = "completed"; passed = false; detail = msg } ];
    notes = [ "experiment aborted by deadline supervisor: " ^ msg ];
    figure = None;
    virtual_seconds = [] }

let run_one_classified ?deadline ctx (e : Experiment.t) =
  let supervised () =
    match deadline with
    | None -> run_one ctx e
    | Some seconds ->
      Sim_util.Deadline.with_budget ~seconds (fun () -> run_one ctx e)
  in
  match supervised () with
  | outcome ->
    let faults = fault_summary_for e in
    let status =
      if faults.Mdfault.injected > 0 || faults.Mdfault.recoveries > 0 then
        Recovered
      else Ok
    in
    { outcome; status; error = None; faults }
  | exception Sim_util.Deadline.Expired budget ->
    let msg =
      Printf.sprintf "wall-clock deadline (%gs) exceeded" budget
    in
    { outcome = deadline_outcome e msg;
      status = Degraded;
      error = Some msg;
      faults = fault_summary_for e }
  | exception exn ->
    let error = Printexc.to_string exn in
    (* Graceful degradation: re-run fault-free (injection suspended on
       this domain only — concurrent experiments keep their streams),
       the reference behaviour the report falls back to. *)
    let fallback =
      if Mdfault.active () then
        match Mdfault.with_suspended (fun () -> run_one ctx e) with
        | o -> Some o
        | exception _ -> None
      else None
    in
    let faults = fault_summary_for e in
    (match fallback with
    | Some o ->
      let o =
        { o with
          Experiment.notes =
            o.Experiment.notes
            @ [ Printf.sprintf
                  "degraded: fault-free fallback re-run after: %s" error ] }
      in
      { outcome = o; status = Degraded; error = Some error; faults }
    | None ->
      { outcome = failure_outcome e error;
        status = Failed;
        error = Some error;
        faults })

let status_of_name = function
  | "ok" -> Ok
  | "recovered" -> Recovered
  | "degraded" -> Degraded
  | _ -> Failed

let classified_of_entry (e : Manifest.entry) =
  { outcome = e.Manifest.ent_outcome;
    status = status_of_name e.Manifest.ent_status;
    error = e.Manifest.ent_error;
    faults = e.Manifest.ent_faults }

let entry_of_classified c =
  { Manifest.ent_id = c.outcome.Experiment.id;
    ent_key = "";  (* stamped by Manifest.record *)
    ent_status = status_name c.status;
    ent_error = c.error;
    ent_faults = c.faults;
    ent_outcome = c.outcome }

(* Experiments are independent given the context (which memoizes shared
   artifacts thread-safely), so they fan out across the Mdpar pool;
   map_list keeps the outcomes in paper order, and every outcome is a
   deterministic function of the scale, so the report is byte-identical
   to a sequential run.  With a [manifest], finished entries are reused
   (their run is skipped entirely) and each newly finished experiment is
   durably recorded the moment it completes, making an interrupted
   report run resumable. *)
let run_list_classified ?pool ?manifest ?deadline ctx exps =
  let pool = match pool with Some p -> p | None -> Mdpar.get () in
  let run_one_entry (e : Experiment.t) =
    match manifest with
    | None -> run_one_classified ?deadline ctx e
    | Some m -> (
      match Manifest.find m e.Experiment.id with
      | Some entry -> classified_of_entry entry
      | None ->
        let c = run_one_classified ?deadline ctx e in
        Manifest.record m (entry_of_classified c);
        c)
  in
  Mdpar.map_list pool run_one_entry exps

let run_all_classified ?pool ?manifest ?deadline ctx =
  run_list_classified ?pool ?manifest ?deadline ctx Registry.all

(* Every experiment is isolated: an exception aborts only its own entry,
   never the report (and at zero fault rate the outcome list is
   byte-identical to the pre-classification behaviour). *)
let run_all ?pool ctx =
  List.map (fun c -> c.outcome) (run_all_classified ?pool ctx)

let render_all outcomes =
  String.concat "\n" (List.map render_outcome outcomes)

let interesting c = c.status <> Ok || c.faults.Mdfault.injected > 0

(* Identical to {!render_all} when every experiment is clean, so the
   zero-rate report stays byte-identical to the pre-fault output. *)
let render_classified cs =
  let render_one c =
    let base = render_outcome c.outcome in
    if not (interesting c) then base
    else begin
      let buf = Buffer.create (String.length base + 256) in
      Buffer.add_string buf base;
      Buffer.add_string buf
        (Printf.sprintf "  status: %s%s\n" (status_name c.status)
           (match c.error with None -> "" | Some e -> " (" ^ e ^ ")"));
      if c.faults.Mdfault.injected > 0 then
        Buffer.add_string buf
          ("  " ^ Mdfault.summary_line c.faults ^ "\n");
      Buffer.contents buf
    end
  in
  String.concat "\n" (List.map render_one cs)

let count_status cs st =
  List.length (List.filter (fun c -> c.status = st) cs)

let classified_summary_line cs =
  Printf.sprintf "outcomes: %d ok, %d recovered, %d degraded, %d failed"
    (count_status cs Ok) (count_status cs Recovered)
    (count_status cs Degraded) (count_status cs Failed)

let write_csvs ~dir outcomes =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (o : Experiment.outcome) ->
      let path = Filename.concat dir (o.id ^ ".csv") in
      Mdio.write_atomic ~fsync_dir:false ~path
        (Sim_util.Table.to_csv o.table);
      path)
    outcomes

let summary_line outcomes =
  let total_checks =
    List.fold_left
      (fun acc (o : Experiment.outcome) -> acc + List.length o.checks)
      0 outcomes
  in
  let passed_checks =
    List.fold_left
      (fun acc (o : Experiment.outcome) ->
        acc + List.length (List.filter (fun c -> c.Experiment.passed) o.checks))
      0 outcomes
  in
  let passed_exps =
    List.length (List.filter Experiment.all_passed outcomes)
  in
  Printf.sprintf
    "%d/%d experiments reproduce the paper's shape (%d/%d checks passed)"
    passed_exps (List.length outcomes) passed_checks total_checks

(* Machine-readable outcome summary.  Everything here is a deterministic
   function of the scale (no host timings), so CI can byte-compare the
   file across pool sizes. *)
let metrics_json ?(classified = []) outcomes =
  let esc = Mdobs.json_escape in
  (* Status/fault fields appear only when some experiment was not plain
     [Ok], keeping the zero-rate file byte-identical to older exports. *)
  let annotate = List.exists interesting classified in
  let annotation id =
    if not annotate then None
    else List.find_opt (fun c -> c.outcome.Experiment.id = id) classified
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n\"experiments\":[";
  List.iteri
    (fun i (o : Experiment.outcome) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"id\":\"%s\",\"title\":\"%s\",\"passed\":%b"
           (esc o.id) (esc o.title) (Experiment.all_passed o));
      (match annotation o.id with
      | Some c ->
        Buffer.add_string buf
          (Printf.sprintf ",\"status\":\"%s\"" (status_name c.status));
        (match c.error with
        | Some e ->
          Buffer.add_string buf (Printf.sprintf ",\"error\":\"%s\"" (esc e))
        | None -> ());
        let f = c.faults in
        Buffer.add_string buf
          (Printf.sprintf
             ",\"faults\":{\"injected\":%d,\"retries\":%d,\"recoveries\":%d,\"unrecovered\":%d,\"backoff_seconds\":%.17g}"
             f.Mdfault.injected f.Mdfault.retries f.Mdfault.recoveries
             f.Mdfault.unrecovered f.Mdfault.backoff_seconds)
      | None -> ());
      Buffer.add_string buf ",\"checks\":[";
      List.iteri
        (fun j (c : Experiment.check) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"passed\":%b,\"detail\":\"%s\"}" (esc c.name)
               c.passed (esc c.detail)))
        o.checks;
      Buffer.add_string buf "],\"notes\":[";
      List.iteri
        (fun j n ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\"" (esc n)))
        o.notes;
      Buffer.add_string buf "],\"virtual_seconds\":{";
      List.iteri
        (fun j (name, s) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%.17g" (esc name) s))
        o.virtual_seconds;
      Buffer.add_string buf "},\"table_csv\":\"";
      Buffer.add_string buf (esc (Sim_util.Table.to_csv o.table));
      Buffer.add_string buf "\"}")
    outcomes;
  let total_checks =
    List.fold_left
      (fun acc (o : Experiment.outcome) -> acc + List.length o.checks)
      0 outcomes
  in
  let passed_checks =
    List.fold_left
      (fun acc (o : Experiment.outcome) ->
        acc + List.length (List.filter (fun c -> c.Experiment.passed) o.checks))
      0 outcomes
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\n\"summary\":{\"experiments\":%d,\"experiments_passed\":%d,\"checks\":%d,\"checks_passed\":%d,%s\"line\":\"%s\"}\n}\n"
       (List.length outcomes)
       (List.length (List.filter Experiment.all_passed outcomes))
       total_checks passed_checks
       (if annotate then
          Printf.sprintf
            "\"statuses\":{\"ok\":%d,\"recovered\":%d,\"degraded\":%d,\"failed\":%d},"
            (count_status classified Ok)
            (count_status classified Recovered)
            (count_status classified Degraded)
            (count_status classified Failed)
        else "")
       (esc (summary_line outcomes)))
  ;
  Buffer.contents buf

let to_markdown outcomes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# Reproduction report\n\n";
  List.iter
    (fun (o : Experiment.outcome) ->
      Buffer.add_string buf (Printf.sprintf "## %s\n\n" o.title);
      Buffer.add_string buf (Sim_util.Table.to_markdown o.table);
      Buffer.add_char buf '\n';
      (match o.figure with
      | Some fig ->
        Buffer.add_string buf "```\n";
        Buffer.add_string buf fig;
        Buffer.add_string buf "\n```\n\n"
      | None -> ());
      List.iter
        (fun (c : Experiment.check) ->
          Buffer.add_string buf
            (Printf.sprintf "- %s **%s** — %s\n"
               (if c.passed then "✅" else "❌")
               c.name c.detail))
        o.checks;
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf "- note: %s\n" n))
        o.notes;
      Buffer.add_char buf '\n')
    outcomes;
  Buffer.add_string buf (summary_line outcomes);
  Buffer.add_char buf '\n';
  Buffer.contents buf
