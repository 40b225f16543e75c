(* Serve layer (lib/serve): ledger CRC/torn-tail replay, scheduler
   fairness and priority quanta, cancel between segments, admission
   control, deadline/retry robustness, and the headline property — an
   abandoned (kill -9 equivalent) engine resumed from its ledger
   converges every job byte-identically with an uninterrupted one. *)

module Ledger = Mdserve.Ledger
module Engine = Mdserve.Engine
module Protocol = Mdserve.Protocol
module Daemon = Mdserve.Daemon

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdsim-serve-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let spec ?(id = "j1") ?(tenant = "default") ?(priority = 1) ?(atoms = 128)
    ?(density = 0.8) ?(engine = "default") ?(skin = 0.4) ?(steps = 12)
    ?(every = 4) ?(seed = 11) ?faults ?deadline ?(telemetry = false) () =
  { Ledger.js_id = id; js_tenant = tenant; js_priority = priority;
    js_device = "opteron"; js_atoms = atoms; js_steps = steps;
    js_seed = seed; js_density = density; js_temperature = 1.0;
    js_engine = engine; js_skin = skin; js_every = every; js_keep = 8;
    js_faults = faults; js_deadline = deadline; js_telemetry = telemetry;
    js_tel_every = every }

let engine ?(max_queue = 16) ?(retries = 2) ?(resume = false) dir =
  match
    Engine.create
      { Engine.cfg_dir = dir; cfg_max_queue = max_queue;
        cfg_retries = retries; cfg_backoff_s = 0.0; cfg_resume = resume }
  with
  | Ok t -> t
  | Error msg -> Alcotest.failf "engine create: %s" msg

let submit_ok eng js =
  match Engine.submit eng js with
  | Ok (id, _) -> id
  | Error msg -> Alcotest.failf "submit %s: %s" js.Ledger.js_id msg

(* Drive the engine to quiescence with a synthetic clock far past any
   backoff gate. *)
let run_to_quiescence ?(max_ticks = 500) eng =
  let rec go n =
    if n > max_ticks then Alcotest.fail "engine did not quiesce"
    else if Engine.tick eng ~now:(1e9 +. float_of_int n) then go (n + 1)
  in
  go 0

let job_status eng id =
  match Engine.status_json eng (Some id) with
  | Error msg -> Alcotest.failf "status %s: %s" id msg
  | Ok reply -> (
    let j = Sim_util.Minijson.parse reply in
    match
      Option.bind (Sim_util.Minijson.member "job" j) (fun job ->
          Option.bind
            (Sim_util.Minijson.member "status" job)
            Sim_util.Minijson.to_string)
    with
    | Some s -> s
    | None -> Alcotest.failf "no status in %s" reply)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ledger_events dir =
  let data = read_file (Filename.concat dir "ledger.jsonl") in
  List.filter_map
    (fun line ->
      match Ledger.verify_line line with
      | Error _ -> None
      | Ok j -> (
        match Ledger.event_of_json j with Ok ev -> Some ev | Error _ -> None))
    (String.split_on_char '\n' data)

(* --- ledger format --- *)

let sample_events =
  [ Ledger.Submitted (spec ~id:"a" ());
    Ledger.Segment { ev_job = "a"; ev_completed = 4; ev_total = 12 };
    Ledger.Retrying { ev_job = "a"; ev_attempt = 1; ev_reason = "boom \"x\"" };
    Ledger.Segment { ev_job = "a"; ev_completed = 8; ev_total = 12 };
    Ledger.Done { ev_job = "a"; ev_status = "recovered"; ev_completed = 12 }
  ]

let encode_ledger events =
  String.concat ""
    (List.mapi
       (fun i ev -> Ledger.encode_line ~seq:i ev ^ "\n")
       events)

let test_ledger_roundtrip () =
  let data = encode_ledger sample_events in
  let r = Ledger.replay_string data in
  Alcotest.(check int) "next seq" 5 r.Ledger.r_next_seq;
  Alcotest.(check (list string)) "no notes" [] r.Ledger.r_notes;
  match r.Ledger.r_jobs with
  | [ v ] ->
    Alcotest.(check string) "id" "a" v.Ledger.v_spec.Ledger.js_id;
    Alcotest.(check int) "completed" 12 v.Ledger.v_completed;
    Alcotest.(check int) "attempts" 1 v.Ledger.v_attempts;
    Alcotest.(check (option string))
      "terminal" (Some "recovered") v.Ledger.v_terminal
  | l -> Alcotest.failf "expected one job view, got %d" (List.length l)

let test_ledger_rejects_corruption () =
  let data = encode_ledger sample_events in
  (* flip one byte inside the second record's completed count *)
  let lines = String.split_on_char '\n' data in
  let mangled =
    String.concat "\n"
      (List.mapi
         (fun i line ->
           if i = 1 then
             String.map (fun c -> if c = '4' then '7' else c) line
           else line)
         lines)
  in
  let r = Ledger.replay_string mangled in
  Alcotest.(check bool) "noted" true (List.length r.Ledger.r_notes = 1);
  Alcotest.(check bool)
    "note says corrupt" true
    (let note = List.hd r.Ledger.r_notes in
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains note "crc mismatch" || contains note "corrupt");
  (* the corrupt segment is skipped; later records still land *)
  match r.Ledger.r_jobs with
  | [ v ] -> Alcotest.(check int) "completed survives" 12 v.Ledger.v_completed
  | _ -> Alcotest.fail "job view lost"

(* Satellite 3: truncating the file anywhere inside the final record
   must replay exactly like the file without that record — a torn tail
   is dropped, never misread, at every byte boundary. *)
let test_ledger_torn_tail_every_boundary () =
  let events = sample_events in
  let data = encode_ledger events in
  let without_last =
    encode_ledger (List.filteri (fun i _ -> i < 4) events)
  in
  let expect = Ledger.replay_string without_last in
  let view v =
    ( (v.Ledger.v_spec.Ledger.js_id, v.Ledger.v_completed),
      (v.Ledger.v_attempts, v.Ledger.v_terminal) )
  in
  let expected_views = List.map view expect.Ledger.r_jobs in
  (* up to len-2: keeping everything but the trailing newline leaves a
     complete, CRC-valid record, which replay rightly keeps *)
  for cut = String.length without_last + 1 to String.length data - 2 do
    let r = Ledger.replay_string (String.sub data 0 cut) in
    Alcotest.(
      check (list (pair (pair string int) (pair int (option string)))))
      (Printf.sprintf "views at cut %d" cut)
      expected_views
      (List.map view r.Ledger.r_jobs);
    Alcotest.(check int)
      (Printf.sprintf "next_seq at cut %d" cut)
      expect.Ledger.r_next_seq r.Ledger.r_next_seq
  done

(* --- engine: completion, artifacts, fairness --- *)

let test_engine_runs_jobs_fairly () =
  let dir = fresh_dir () in
  let eng = engine dir in
  let a1 = submit_ok eng (spec ~id:"a1" ~tenant:"alice" ()) in
  let a2 = submit_ok eng (spec ~id:"a2" ~tenant:"alice" ()) in
  let b1 = submit_ok eng (spec ~id:"b1" ~tenant:"bob" ~priority:2 ()) in
  run_to_quiescence eng;
  List.iter
    (fun id -> Alcotest.(check string) id "ok" (job_status eng id))
    [ a1; a2; b1 ];
  let segs =
    List.filter_map
      (function
        | Ledger.Segment { ev_job; _ } -> Some ev_job
        | _ -> None)
      (ledger_events dir)
  in
  Alcotest.(check int) "9 segments" 9 (List.length segs);
  (* round-robin: alice's first job opens, then bob takes the slot *)
  (match segs with
  | s1 :: s2 :: _ ->
    Alcotest.(check string) "alice opens" "a1" s1;
    Alcotest.(check string) "then bob" "b1" s2
  | _ -> Alcotest.fail "missing segments");
  (* priority 2 = two consecutive segments per turn for bob *)
  let rec has_pair = function
    | "b1" :: "b1" :: _ -> true
    | _ :: rest -> has_pair rest
    | [] -> false
  in
  Alcotest.(check bool) "priority quantum" true (has_pair segs);
  (* within a tenant, submit order: a2 starts only after a1 finishes *)
  let rec first_idx i id = function
    | [] -> -1
    | s :: rest -> if s = id then i else first_idx (i + 1) id rest
  in
  let rec last_idx i best id = function
    | [] -> best
    | s :: rest -> last_idx (i + 1) (if s = id then i else best) id rest
  in
  Alcotest.(check bool) "fifo within tenant" true
    (first_idx 0 "a2" segs > last_idx 0 (-1) "a1" segs);
  Engine.shutdown eng

let test_engine_cancel_mid_run () =
  let dir = fresh_dir () in
  let eng = engine dir in
  let id = submit_ok eng (spec ~id:"c1" ()) in
  Alcotest.(check bool) "first tick works" true (Engine.tick eng ~now:0.0);
  (match Engine.cancel eng id with
  | Ok completed -> Alcotest.(check int) "one segment done" 4 completed
  | Error msg -> Alcotest.failf "cancel: %s" msg);
  Alcotest.(check string) "cancelled" "cancelled" (job_status eng id);
  Alcotest.(check bool) "nothing left to run" false (Engine.tick eng ~now:0.0);
  (match Engine.cancel eng id with
  | Ok _ -> Alcotest.fail "double cancel must fail"
  | Error _ -> ());
  Alcotest.(check bool) "cancelled record in ledger" true
    (List.exists
       (function Ledger.Cancelled _ -> true | _ -> false)
       (ledger_events dir));
  Engine.shutdown eng

let test_engine_admission_control () =
  let dir = fresh_dir () in
  let eng = engine ~max_queue:1 dir in
  ignore (submit_ok eng (spec ~id:"q1" ()));
  (match Engine.submit eng (spec ~id:"q2" ()) with
  | Ok _ -> Alcotest.fail "overload submit must be rejected"
  | Error msg ->
    Alcotest.(check bool) "says overload" true
      (String.length msg >= 8 && String.sub msg 0 8 = "rejected"));
  (* terminal jobs free queue slots *)
  run_to_quiescence eng;
  ignore (submit_ok eng (spec ~id:"q3" ()));
  Engine.request_drain eng;
  (match Engine.submit eng (spec ~id:"q4" ()) with
  | Ok _ -> Alcotest.fail "draining submit must be rejected"
  | Error _ -> ());
  Engine.shutdown eng

(* Two shapes an earlier daemon acked: a box one ulp below 2·cutoff
   (its first segment raised out of [tick]) and an explicit pairlist on a
   box one ulp below 2·(cutoff+skin) (it silently ran N²). *)
let unrunnable_specs () =
  [ spec ~id:"u1" ~atoms:100 ();
    spec ~id:"u2" ~atoms:150 ~density:0.76878920824962094 ~engine:"pairlist"
      () ]

let test_engine_rejects_unrunnable_geometry () =
  let dir = fresh_dir () in
  let eng = engine dir in
  let before = read_file (Filename.concat dir "ledger.jsonl") in
  List.iter
    (fun js ->
      match Engine.submit eng js with
      | Ok _ -> Alcotest.failf "%s must be rejected" js.Ledger.js_id
      | Error msg ->
        Alcotest.(check bool)
          (js.Ledger.js_id ^ " invalid: " ^ msg)
          true
          (String.length msg >= 8 && String.sub msg 0 8 = "invalid:"))
    (* The ledger records the skin, so a non-finite one is refused for
       every engine, n2 included. *)
    (spec ~id:"u3" ~engine:"n2" ~skin:Float.nan () :: unrunnable_specs ());
  Alcotest.(check string) "ledger unchanged" before
    (read_file (Filename.concat dir "ledger.jsonl"));
  Alcotest.(check bool) "nothing to run" false (Engine.tick eng ~now:0.0);
  Engine.shutdown eng

let test_engine_fails_unrunnable_on_adopt () =
  let dir = fresh_dir () in
  let w =
    Ledger.open_writer ~path:(Filename.concat dir "ledger.jsonl") ~next_seq:0
  in
  List.iter (fun js -> Ledger.append w (Ledger.Submitted js))
    (unrunnable_specs ());
  Ledger.close_writer w;
  let eng = engine ~resume:true dir in
  List.iter
    (fun js ->
      Alcotest.(check string) (js.Ledger.js_id ^ " failed") "failed"
        (job_status eng js.Ledger.js_id))
    (unrunnable_specs ());
  Alcotest.(check bool) "tick idles" false (Engine.tick eng ~now:0.0);
  Engine.shutdown eng;
  Alcotest.(check int) "failed records" 2
    (List.length
       (List.filter
          (function Ledger.Failed _ -> true | _ -> false)
          (ledger_events dir)))

let test_engine_deadline_degrades () =
  let dir = fresh_dir () in
  let eng = engine dir in
  let id =
    submit_ok eng (spec ~id:"d1" ~steps:400 ~every:4 ~deadline:1e-6 ())
  in
  run_to_quiescence eng;
  Alcotest.(check string) "degraded" "degraded" (job_status eng id);
  Alcotest.(check bool) "degraded record" true
    (List.exists
       (function Ledger.Degraded _ -> true | _ -> false)
       (ledger_events dir));
  Engine.shutdown eng

let test_engine_retry_exhaustion_fails () =
  let dir = fresh_dir () in
  let eng = engine ~retries:2 dir in
  (* retries=0 in the plan: every injected fault is instantly fatal, so
     each engine-level attempt (fresh draws at 90% rate) dies too *)
  let id =
    submit_ok eng (spec ~id:"f1" ~faults:"all:0.9,retries=0" ())
  in
  run_to_quiescence eng;
  Alcotest.(check string) "failed" "failed" (job_status eng id);
  let retrying =
    List.filter
      (function Ledger.Retrying _ -> true | _ -> false)
      (ledger_events dir)
  in
  Alcotest.(check int) "used the retry budget" 2 (List.length retrying);
  Alcotest.(check bool) "failed record" true
    (List.exists
       (function Ledger.Failed _ -> true | _ -> false)
       (ledger_events dir));
  Engine.shutdown eng

let test_engine_retry_backoff_gates () =
  let dir = fresh_dir () in
  let eng =
    match
      Engine.create
        { Engine.cfg_dir = dir; cfg_max_queue = 4; cfg_retries = 3;
          cfg_backoff_s = 10.0; cfg_resume = false }
    with
    | Ok t -> t
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  let id =
    submit_ok eng (spec ~id:"f2" ~faults:"all:0.9,retries=0" ())
  in
  (* first tick dies and arms the 10 s backoff gate at now=100 *)
  Alcotest.(check bool) "attempt runs" true (Engine.tick eng ~now:100.0);
  Alcotest.(check string) "still live" "running" (job_status eng id);
  Alcotest.(check bool) "gated" false (Engine.tick eng ~now:105.0);
  Alcotest.(check bool) "gate opens" true (Engine.tick eng ~now:111.0);
  ignore id;
  Engine.abandon eng

(* --- the headline: abandon (kill -9) + resume converges bitwise --- *)

let test_crash_resume_converges_bitwise () =
  let dir1 = fresh_dir () in
  let dir2 = fresh_dir () in
  (* distinct tenants so three ticks leave BOTH jobs mid-flight *)
  let submit_both eng =
    ignore
      (submit_ok eng (spec ~id:"ja" ~tenant:"alpha" ~seed:3 ~telemetry:true ()));
    ignore
      (submit_ok eng (spec ~id:"jb" ~tenant:"beta" ~faults:"all:1e-3" ()))
  in
  (* uninterrupted reference *)
  let ref_eng = engine dir2 in
  submit_both ref_eng;
  run_to_quiescence ref_eng;
  Engine.shutdown ref_eng;
  (* interrupted run: 3 segments in (both jobs mid-flight), then die *)
  let eng1 = engine dir1 in
  submit_both eng1;
  for _ = 1 to 3 do
    Alcotest.(check bool) "progress" true (Engine.tick eng1 ~now:0.0)
  done;
  Engine.abandon eng1;
  (* resume from the ledger; jobs re-adopt their newest checkpoints *)
  let eng2 = engine ~resume:true dir1 in
  Alcotest.(check bool) "ja re-adopted mid-run" true
    (job_status eng2 "ja" = "queued");
  run_to_quiescence eng2;
  Alcotest.(check string) "ja ok" "ok" (job_status eng2 "ja");
  Alcotest.(check string) "jb recovered" "recovered" (job_status eng2 "jb");
  Engine.shutdown eng2;
  (* resumed records were appended for the adopted jobs *)
  let resumed =
    List.filter_map
      (function
        | Ledger.Resumed { ev_job; ev_completed } -> Some (ev_job, ev_completed)
        | _ -> None)
      (ledger_events dir1)
  in
  Alcotest.(check int) "two jobs resumed" 2 (List.length resumed);
  Alcotest.(check bool) "resumed past step 0" true
    (List.for_all (fun (_, c) -> c > 0) resumed);
  (* byte-identical artifacts vs the uninterrupted engine *)
  List.iter
    (fun (job, file) ->
      let p dir = Filename.concat (Filename.concat (Filename.concat dir "jobs") job) file in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s bitwise" job file)
        (read_file (p dir2)) (read_file (p dir1)))
    [ ("ja", "report.txt"); ("ja", "metrics.json"); ("ja", "counters.json");
      ("jb", "report.txt"); ("jb", "metrics.json") ]

let test_resume_refused_without_flag () =
  let dir = fresh_dir () in
  let eng = engine dir in
  ignore (submit_ok eng (spec ~id:"r1" ()));
  Engine.abandon eng;
  match
    Engine.create
      { Engine.cfg_dir = dir; cfg_max_queue = 4; cfg_retries = 0;
        cfg_backoff_s = 0.0; cfg_resume = false }
  with
  | Ok eng2 ->
    Engine.abandon eng2;
    Alcotest.fail "existing ledger without --resume-queue must be refused"
  | Error msg ->
    Alcotest.(check bool) "mentions resume-queue" true
      (let contains s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       contains msg "resume-queue")

(* --- protocol and request handling --- *)

let test_protocol_parse () =
  (match Protocol.parse_request "{\"op\":\"ping\"}" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match
     Protocol.parse_request
       "{\"op\":\"submit\",\"id\":\"x\",\"atoms\":32,\"steps\":8,\
        \"faults\":\"all:1e-3\"}"
   with
  | Ok (Protocol.Submit js) ->
    Alcotest.(check string) "id" "x" js.Ledger.js_id;
    Alcotest.(check int) "atoms" 32 js.Ledger.js_atoms;
    Alcotest.(check (option string))
      "faults" (Some "all:1e-3") js.Ledger.js_faults
  | _ -> Alcotest.fail "submit");
  (match Protocol.parse_request "{\"op\":\"cancel\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cancel without job must fail");
  (match Protocol.parse_request "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must fail");
  match Protocol.parse_request "{\"op\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must fail"

(* A present field of the wrong type, a fractional integer or one past
   2^53 is a bad request naming the field, never a silent default or a
   truncation.  Absent and null fields keep their defaults. *)
let test_protocol_rejects_mistyped_fields () =
  List.iter
    (fun (body, field) ->
      match Protocol.parse_request body with
      | Ok _ -> Alcotest.failf "%s was accepted" body
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" body msg field)
          true
          (String.starts_with ~prefix:("bad request: " ^ field ^ " ") msg))
    [ ("{\"op\":\"submit\",\"skin\":\"0.1\"}", "skin");
      ("{\"op\":\"submit\",\"atoms\":256.9}", "atoms");
      ("{\"op\":\"submit\",\"deadline\":\"30\"}", "deadline");
      ("{\"op\":\"submit\",\"steps\":1e19}", "steps");
      ("{\"op\":\"submit\",\"telemetry\":1}", "telemetry");
      ("{\"op\":\"tail\",\"limit\":\"5\"}", "limit") ];
  match
    Protocol.parse_request
      "{\"op\":\"submit\",\"id\":\"d\",\"deadline\":null,\"faults\":null}"
  with
  | Ok (Protocol.Submit js) ->
    Alcotest.(check (float 0.0)) "default skin" 0.4 js.Ledger.js_skin;
    Alcotest.(check int) "default atoms" 256 js.Ledger.js_atoms;
    Alcotest.(check (option (float 0.0))) "null deadline" None
      js.Ledger.js_deadline;
    Alcotest.(check (option string)) "null faults" None js.Ledger.js_faults
  | _ -> Alcotest.fail "defaults and nulls must be accepted"

(* [mdsim job submit --skin nan] formats its floats with
   [Mdobs.json_float], so the body is valid JSON and the daemon's reply
   names the field. *)
let test_daemon_rejects_nan_skin () =
  let eng = engine (fresh_dir ()) in
  let body =
    Printf.sprintf "{\"op\":\"submit\",\"id\":\"n1\",\"skin\":%s}"
      (Mdobs.json_float Float.nan)
  in
  let j = Sim_util.Minijson.parse (Daemon.handle_request eng body) in
  Alcotest.(check (option bool))
    "rejected" (Some false)
    (Option.bind (Sim_util.Minijson.member "ok" j) Sim_util.Minijson.to_bool);
  (match
     Option.bind (Sim_util.Minijson.member "error" j)
       Sim_util.Minijson.to_string
   with
  | Some msg ->
    Alcotest.(check bool) (Printf.sprintf "%S names skin" msg) true
      (String.starts_with ~prefix:"bad request: skin " msg)
  | None -> Alcotest.fail "no error in the reply");
  Engine.abandon eng

let test_daemon_handle_request () =
  let dir = fresh_dir () in
  let eng = engine dir in
  let reply = Daemon.handle_request eng "{\"op\":\"ping\"}" in
  let j = Sim_util.Minijson.parse reply in
  Alcotest.(check (option bool))
    "pong ok" (Some true)
    (Option.bind (Sim_util.Minijson.member "ok" j) Sim_util.Minijson.to_bool);
  let reply =
    Daemon.handle_request eng
      "{\"op\":\"submit\",\"id\":\"h1\",\"atoms\":128,\"steps\":8,\"every\":4}"
  in
  let j = Sim_util.Minijson.parse reply in
  Alcotest.(check (option string))
    "job id" (Some "h1")
    (Option.bind (Sim_util.Minijson.member "job" j) Sim_util.Minijson.to_string);
  (* invalid spec comes back as a clean error reply *)
  let reply =
    Daemon.handle_request eng
      "{\"op\":\"submit\",\"id\":\"h2\",\"atoms\":-4}"
  in
  let j = Sim_util.Minijson.parse reply in
  Alcotest.(check (option bool))
    "rejected" (Some false)
    (Option.bind (Sim_util.Minijson.member "ok" j) Sim_util.Minijson.to_bool);
  run_to_quiescence eng;
  let reply = Daemon.handle_request eng "{\"op\":\"tail\",\"limit\":3}" in
  Alcotest.(check (option bool))
    "tail ok" (Some true)
    (Option.bind
       (Sim_util.Minijson.member "ok" (Sim_util.Minijson.parse reply))
       Sim_util.Minijson.to_bool);
  Engine.shutdown eng

(* Satellite 1: a suspend request (what the CLI's SIGTERM/SIGINT
   handlers issue) lands on the next segment boundary with a durable
   checkpoint, and the suspended run resumes bitwise. *)
let test_runner_suspend_request () =
  let module Runner = Mdckpt.Runner in
  let dir = fresh_dir () in
  let cfg =
    { Runner.cfg_device = Runner.Opteron; cfg_atoms = 128; cfg_steps = 12;
      cfg_seed = 5; cfg_density = 0.8; cfg_temperature = 1.0;
      cfg_force_path = Mdports.Force_path.default; cfg_every = 4;
      cfg_keep = 8; cfg_dir = dir }
  in
  Runner.request_suspend ~reason:"SIGTERM received";
  let outcome =
    Fun.protect ~finally:Runner.clear_suspend_request (fun () ->
        Runner.run cfg)
  in
  match outcome with
  | Runner.Complete _ -> Alcotest.fail "expected suspension"
  | Runner.Suspended s ->
    Alcotest.(check string) "reason" "SIGTERM received"
      s.Runner.sus_reason;
    Alcotest.(check bool) "durable checkpoint" true
      (s.Runner.sus_path <> None);
    (* an undisturbed run from scratch must match resume's final state *)
    let resumed =
      match Runner.resume (Option.get s.Runner.sus_path) with
      | Ok (Runner.Complete r) -> r
      | Ok (Runner.Suspended _) -> Alcotest.fail "second suspension"
      | Error msg -> Alcotest.failf "resume: %s" msg
    in
    let dir2 = fresh_dir () in
    let straight =
      match Runner.run { cfg with Runner.cfg_dir = dir2 } with
      | Runner.Complete r -> r
      | Runner.Suspended _ -> Alcotest.fail "unexpected suspension"
    in
    Alcotest.(check string) "bitwise"
      (Mdports.Run_result.metrics_json straight)
      (Mdports.Run_result.metrics_json resumed)

let tests =
  ( "serve",
    [ Alcotest.test_case "ledger roundtrip" `Quick test_ledger_roundtrip;
      Alcotest.test_case "ledger rejects corruption" `Quick
        test_ledger_rejects_corruption;
      Alcotest.test_case "ledger torn tail at every boundary" `Quick
        test_ledger_torn_tail_every_boundary;
      Alcotest.test_case "engine runs jobs fairly" `Quick
        test_engine_runs_jobs_fairly;
      Alcotest.test_case "engine cancel mid-run" `Quick
        test_engine_cancel_mid_run;
      Alcotest.test_case "engine admission control" `Quick
        test_engine_admission_control;
      Alcotest.test_case "engine rejects unrunnable geometry" `Quick
        test_engine_rejects_unrunnable_geometry;
      Alcotest.test_case "engine fails unrunnable on adopt" `Quick
        test_engine_fails_unrunnable_on_adopt;
      Alcotest.test_case "engine deadline degrades" `Quick
        test_engine_deadline_degrades;
      Alcotest.test_case "engine retry exhaustion fails" `Quick
        test_engine_retry_exhaustion_fails;
      Alcotest.test_case "engine retry backoff gates" `Quick
        test_engine_retry_backoff_gates;
      Alcotest.test_case "crash+resume converges bitwise" `Quick
        test_crash_resume_converges_bitwise;
      Alcotest.test_case "resume refused without flag" `Quick
        test_resume_refused_without_flag;
      Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
      Alcotest.test_case "protocol rejects mistyped fields" `Quick
        test_protocol_rejects_mistyped_fields;
      Alcotest.test_case "daemon rejects nan skin" `Quick
        test_daemon_rejects_nan_skin;
      Alcotest.test_case "daemon handle_request" `Quick
        test_daemon_handle_request;
      Alcotest.test_case "runner suspend request" `Quick
        test_runner_suspend_request ] )
