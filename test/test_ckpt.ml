(* Durable checkpoint/resume (lib/ckpt): wire format integrity, GC and
   fallback, kill-and-resume bitwise convergence, invariant guards, and
   the deadline-supervised / manifest-resumable harness. *)

module Runner = Mdckpt.Runner
module System = Mdcore.System
module Verlet = Mdcore.Verlet
module Rng = Sim_util.Rng

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdsim-ckpt-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let with_plan spec_text f =
  (match Mdfault.parse_spec spec_text with
  | Ok spec -> Mdfault.install spec
  | Error msg -> Alcotest.failf "bad spec %S: %s" spec_text msg);
  Fun.protect ~finally:Mdfault.uninstall f

let cfg ?(device = Runner.Opteron) ?(atoms = 128) ?(steps = 12) ?(every = 4)
    ~dir () =
  { Runner.cfg_device = device;
    cfg_atoms = atoms;
    cfg_steps = steps;
    cfg_seed = 11;
    cfg_density = 0.8;
    cfg_temperature = 1.0;
    cfg_force_path = Mdports.Force_path.default;
    cfg_every = every;
    cfg_keep = 8;
    cfg_dir = dir }

let complete = function
  | Runner.Complete r -> r
  | Runner.Suspended s ->
    Alcotest.failf "expected completion, suspended at %d/%d: %s"
      s.Runner.sus_completed s.Runner.sus_total s.Runner.sus_reason

let suspended = function
  | Runner.Suspended s -> s
  | Runner.Complete _ -> Alcotest.fail "expected suspension, run completed"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Bitwise equality of everything a run reports: the trajectory records
   (exact float compare), the virtual clock, the ledger, the work
   counts.  This is the acceptance bar for resume. *)
let check_same_result what (a : Mdports.Run_result.t)
    (b : Mdports.Run_result.t) =
  Alcotest.(check string) (what ^ ": device") a.Mdports.Run_result.device
    b.Mdports.Run_result.device;
  Alcotest.(check bool)
    (what ^ ": records bitwise")
    true
    (a.Mdports.Run_result.records = b.Mdports.Run_result.records);
  Alcotest.(check bool)
    (what ^ ": virtual seconds bitwise")
    true
    (a.Mdports.Run_result.seconds = b.Mdports.Run_result.seconds);
  Alcotest.(check bool)
    (what ^ ": breakdown bitwise")
    true
    (a.Mdports.Run_result.breakdown = b.Mdports.Run_result.breakdown);
  Alcotest.(check int)
    (what ^ ": pairs")
    a.Mdports.Run_result.pairs_evaluated b.Mdports.Run_result.pairs_evaluated;
  Alcotest.(check int)
    (what ^ ": interactions")
    a.Mdports.Run_result.interactions b.Mdports.Run_result.interactions

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* the classic IEEE check value *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Mdckpt.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Mdckpt.crc32 "")

let sample_state () =
  let system = Mdcore.Init.build ~seed:3 ~n:128 () in
  { Mdckpt.device = "opteron";
    atoms = 128;
    total_steps = 8;
    completed = 4;
    seed = 3;
    density = 0.8;
    temperature = 1.0;
    engine = "pairlist";
    skin = 0.4;
    every = 4;
    keep = 2;
    guard_restores = 1;
    system;
    progress =
      { Mdckpt.seconds = 0.125;
        breakdown = [ ("compute", 0.1); ("memory", 0.025) ];
        pairs_evaluated = 1104;
        interactions = 732;
        records =
          [ { Verlet.step = 0; sim_time = 0.0; pe = -1.5; ke = 0.75;
              total_energy = -0.75; temperature = 1.0 } ];
        device_label = "Opteron 2.2 GHz" };
    fault = None;
    counters =
      Some
        [ { Mdprof.p_name = "gpu/dma/bytes_in"; p_unit = "bytes";
            p_kind = Mdprof.Counter; p_value = 4096.0; p_hwm = 4096.0;
            p_bounds = [||]; p_counts = [||]; p_obs = 0; p_sum = 0.0 };
          { Mdprof.p_name = "spe/chunk"; p_unit = "pairs";
            p_kind = Mdprof.Histogram; p_value = 0.0; p_hwm = 0.0;
            p_bounds = [| 16.0; 64.0 |]; p_counts = [| 3; 2; 1 |];
            p_obs = 6; p_sum = 312.0 } ] }

let test_roundtrip () =
  let st = sample_state () in
  match Mdckpt.decode (Mdckpt.encode st) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok d ->
    Alcotest.(check string) "device" st.Mdckpt.device d.Mdckpt.device;
    Alcotest.(check int) "completed" st.Mdckpt.completed d.Mdckpt.completed;
    Alcotest.(check int) "guard restores" st.Mdckpt.guard_restores
      d.Mdckpt.guard_restores;
    Alcotest.(check bool) "positions bitwise" true
      (st.Mdckpt.system.System.pos_x = d.Mdckpt.system.System.pos_x);
    Alcotest.(check bool) "velocities bitwise" true
      (st.Mdckpt.system.System.vel_y = d.Mdckpt.system.System.vel_y);
    Alcotest.(check bool) "progress bitwise" true
      (st.Mdckpt.progress = d.Mdckpt.progress);
    Alcotest.(check bool) "counters round trip" true
      (st.Mdckpt.counters = d.Mdckpt.counters)

(* Checkpoints written before the counters section existed must still
   decode — drop the section from a fresh container and expect [None],
   not a decode error. *)
let test_decode_without_counters_section () =
  let st = sample_state () in
  let magic = Mdckpt.schema ^ "\n" in
  match Mdckpt.decode_container ~magic (Mdckpt.encode st) with
  | Error msg -> Alcotest.failf "container decode failed: %s" msg
  | Ok sections ->
    Alcotest.(check bool) "fresh container carries counters" true
      (List.mem_assoc "counters" sections);
    let stripped =
      List.filter (fun (name, _) -> name <> "counters") sections
    in
    (match Mdckpt.decode (Mdckpt.encode_container ~magic stripped) with
    | Error msg -> Alcotest.failf "pre-counters checkpoint rejected: %s" msg
    | Ok d ->
      Alcotest.(check bool) "counters default to None" true
        (d.Mdckpt.counters = None);
      Alcotest.(check int) "rest of the state intact" st.Mdckpt.completed
        d.Mdckpt.completed)

(* The bulk little-endian blit of a bigarray stream must produce the
   bytes of the per-element [farr] encoding of the same values — that is
   the whole contract that lets the blit ship the wire format unchanged,
   whatever the host's byte order.  Poison the buffers with the float
   edge cases (negative zero, subnormal, NaN payload, infinities) so the
   comparison is not vacuous. *)
let test_blit_matches_portable () =
  let st = sample_state () in
  let s = st.Mdckpt.system in
  s.System.vel_x.{0} <- -0.0;
  s.System.vel_x.{1} <- 4.9e-324;
  s.System.vel_y.{0} <- Float.infinity;
  s.System.vel_z.{0} <- Float.neg_infinity;
  s.System.acc_y.{0} <- Int64.float_of_bits 0x7FF0_0000_DEAD_BEEFL;
  List.iter
    (fun (name, (a : System.buf)) ->
      let blit = Buffer.create 64 and portable = Buffer.create 64 in
      Mdckpt.Wire.fbuf blit a;
      Mdckpt.Wire.farr portable
        (Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a));
      Alcotest.(check string)
        (name ^ ": encoders byte-identical")
        (Buffer.contents portable) (Buffer.contents blit))
    [ ("vel_x", s.System.vel_x); ("vel_y", s.System.vel_y);
      ("vel_z", s.System.vel_z); ("acc_y", s.System.acc_y) ];
  (* Decode and re-encode: every poisoned bit pattern (including the
     NaN payload) must survive the round trip exactly. *)
  let encoded = Mdckpt.encode st in
  match Mdckpt.decode encoded with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok d ->
    Alcotest.(check bool) "re-encoding bitwise" true
      (String.equal encoded (Mdckpt.encode d))

(* The rng and thermostat sections are always written empty.  A file
   that carries an RNG stream or a thermostat there is refused: a resume
   would silently drop that state. *)
let test_nonempty_reserved_section_rejected () =
  let magic = Mdckpt.schema ^ "\n" in
  let sections =
    match Mdckpt.decode_container ~magic (Mdckpt.encode (sample_state ())) with
    | Ok sections -> sections
    | Error msg -> Alcotest.failf "container decode failed: %s" msg
  in
  let rng_state buf =
    Mdckpt.Wire.i64 buf 77;
    Mdckpt.Wire.opt buf Mdckpt.Wire.f64 (Some 0.5)
  in
  let filled =
    [ ("rng",
       fun buf ->
         Mdckpt.Wire.list buf
           (fun buf () ->
             Mdckpt.Wire.str buf "aux";
             rng_state buf)
           [ () ]);
      ("thermostat",
       fun buf ->
         Mdckpt.Wire.opt buf
           (fun buf () ->
             Mdckpt.Wire.f64 buf 1.0;
             Mdckpt.Wire.f64 buf 0.05;
             rng_state buf)
           (Some ())) ]
  in
  List.iter
    (fun (name, fill) ->
      let payload =
        let buf = Buffer.create 64 in
        fill buf;
        Buffer.contents buf
      in
      let data =
        Mdckpt.encode_container ~magic
          (List.map
             (fun (n, p) -> (n, if n = name then payload else p))
             sections)
      in
      match Mdckpt.decode data with
      | Ok _ -> Alcotest.failf "a non-empty %s section was accepted" name
      | Error msg ->
        Alcotest.(check bool) (name ^ ": names the section") true
          (contains msg name))
    filled

let test_rng_state_resumes_gaussian_cache () =
  (* The Box–Muller cache is part of the stream state: a checkpoint taken
     after an odd number of gaussian draws must replay the cached half. *)
  let a = Rng.create 9 in
  ignore (Rng.gaussian a);
  let b = Rng.of_state (Rng.state a) in
  for i = 0 to 9 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "draw %d" i)
      (Rng.gaussian a) (Rng.gaussian b)
  done

let test_corrupt_byte_rejected () =
  let data = Bytes.of_string (Mdckpt.encode (sample_state ())) in
  (* flip one byte in the middle of the file — inside the system
     section's coordinate payload, by far the largest *)
  let i = Bytes.length data / 2 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x40));
  match Mdckpt.decode (Bytes.to_string data) with
  | Ok _ -> Alcotest.fail "corrupted checkpoint was accepted"
  | Error msg ->
    Alcotest.(check bool) "mentions CRC" true
      (String.length msg >= 3 && String.lowercase_ascii msg |> fun m ->
       let rec has i =
         i + 3 <= String.length m && (String.sub m i 3 = "crc" || has (i + 1))
       in
       has 0);
    Alcotest.(check bool) "one line" false (String.contains msg '\n')

let test_truncated_rejected () =
  let data = Mdckpt.encode (sample_state ()) in
  match Mdckpt.decode (String.sub data 0 (String.length data / 2)) with
  | Ok _ -> Alcotest.fail "truncated checkpoint was accepted"
  | Error msg ->
    Alcotest.(check bool) "one line" false (String.contains msg '\n')

let test_wrong_schema_rejected () =
  match Mdckpt.decode "mdsim-checkpoint-v999\njunk" with
  | Ok _ -> Alcotest.fail "foreign schema was accepted"
  | Error msg ->
    Alcotest.(check bool) "mentions magic" true
      (String.length msg > 0 && String.sub msg 0 9 = "bad magic")

(* ------------------------------------------------------------------ *)
(* Generations, GC, fallback                                           *)
(* ------------------------------------------------------------------ *)

let test_gc_keeps_k () =
  let dir = fresh_dir () in
  let st = { (sample_state ()) with Mdckpt.keep = 2 } in
  List.iter
    (fun completed ->
      ignore (Mdckpt.save ~dir { st with Mdckpt.completed }))
    [ 0; 4; 8; 12; 16 ];
  let gens = Mdckpt.generations ~dir in
  Alcotest.(check (list int)) "newest K survive" [ 12; 16 ]
    (List.map fst gens)

let test_load_latest_falls_back () =
  let dir = fresh_dir () in
  let st = { (sample_state ()) with Mdckpt.keep = 8 } in
  ignore (Mdckpt.save ~dir { st with Mdckpt.completed = 4 });
  let newest = Mdckpt.save ~dir { st with Mdckpt.completed = 8 } in
  (* hand-corrupt the newest generation on disk *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 newest in
  seek_out oc 64;
  output_string oc "\xde\xad\xbe\xef";
  close_out oc;
  match Mdckpt.load_latest ~dir with
  | Error msg -> Alcotest.failf "fallback failed: %s" msg
  | Ok (st', path) ->
    Alcotest.(check int) "previous generation used" 4 st'.Mdckpt.completed;
    Alcotest.(check bool) "path is the older file" true
      (Filename.basename path = "ckpt-000000004.mdsim")

let test_load_latest_empty_dir () =
  match Mdckpt.load_latest ~dir:(fresh_dir ()) with
  | Ok _ -> Alcotest.fail "empty dir produced a checkpoint"
  | Error msg ->
    Alcotest.(check bool) "one line" false (String.contains msg '\n')

(* ------------------------------------------------------------------ *)
(* Kill-and-resume bitwise convergence                                 *)
(* ------------------------------------------------------------------ *)

let kill_and_resume_check ?(device = Runner.Opteron) ?(atoms = 128) () =
  Mdfault.set_guard_restores 0;
  let full =
    complete (Runner.run (cfg ~device ~atoms ~dir:(fresh_dir ()) ()))
  in
  let dir = fresh_dir () in
  Mdfault.set_guard_restores 0;
  let s =
    suspended (Runner.run ~abort_after_segments:1 (cfg ~device ~atoms ~dir ()))
  in
  Alcotest.(check int) "killed after one segment" 4 s.Runner.sus_completed;
  Mdfault.set_guard_restores 0;
  match Runner.resume dir with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok outcome -> check_same_result "resumed vs uninterrupted" full
                    (complete outcome)

let test_kill_resume_domains1 () =
  let saved = Mdpar.default_domains () in
  Mdpar.set_default_domains 1;
  Fun.protect
    ~finally:(fun () -> Mdpar.set_default_domains saved)
    (fun () -> kill_and_resume_check ())

let test_kill_resume_domains4 () =
  let saved = Mdpar.default_domains () in
  Mdpar.set_default_domains 4;
  Fun.protect
    ~finally:(fun () -> Mdpar.set_default_domains saved)
    (fun () -> kill_and_resume_check ())

let test_kill_resume_pairlist () =
  (* At 512 atoms the box admits the skin list, so the production
     pairlist engine is live across the kill: the resumed segment starts
     with a fresh list (state is never serialized — the first refresh
     forces a rebuild) and must still converge bitwise, because the
     trajectory is rebuild-cadence independent. *)
  kill_and_resume_check ~atoms:512 ()

let test_kill_resume_cell_with_faults () =
  (* The checkpoint carries the fault-plan state (stream PRNG positions,
     counters, event logs): a killed chaos run resumes to the exact
     event sequence of the uninterrupted one. *)
  let spec = "all:2e-3,seed=9" in
  let run_full () =
    with_plan spec (fun () ->
        Mdfault.set_guard_restores 0;
        let r =
          complete
            (Runner.run (cfg ~device:Runner.Cell ~dir:(fresh_dir ()) ()))
        in
        (r, Mdfault.events_string ()))
  in
  let full, full_events = run_full () in
  let dir = fresh_dir () in
  with_plan spec (fun () ->
      Mdfault.set_guard_restores 0;
      ignore
        (suspended
           (Runner.run ~abort_after_segments:1
              (cfg ~device:Runner.Cell ~dir ()))));
  (* plan uninstalled: a resumed "fresh process" gets it from the file *)
  Fun.protect ~finally:Mdfault.uninstall (fun () ->
      match Runner.resume dir with
      | Error msg -> Alcotest.failf "resume failed: %s" msg
      | Ok outcome ->
        check_same_result "chaos resume" full (complete outcome);
        Alcotest.(check string) "fault event log identical" full_events
          (Mdfault.events_string ()))

let test_resume_completed_checkpoint () =
  let dir = fresh_dir () in
  Mdfault.set_guard_restores 0;
  let full = complete (Runner.run (cfg ~dir ())) in
  (* the newest generation now covers the whole run *)
  match Runner.resume dir with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok outcome ->
    check_same_result "resume of finished run" full (complete outcome)

(* ------------------------------------------------------------------ *)
(* Invariant guard                                                     *)
(* ------------------------------------------------------------------ *)

(* An engine wrapper that silently corrupts one acceleration component
   on selected calls — the undetected-bit-flip model the retry layer
   cannot see, only the guard can. *)
let corrupting_engine ~corrupt_calls =
  let calls = ref 0 in
  Mdcore.Engine.make ~name:"silent-corruptor" ~compute:(fun s ->
      incr calls;
      let pe = Mdcore.Forces.gather_engine.Mdcore.Engine.compute s in
      if List.mem !calls corrupt_calls then
        s.System.acc_x.{0} <- Float.nan;
      pe)

let test_guard_restores_silent_corruption () =
  let reference =
    let s = Mdcore.Init.build ~seed:21 ~n:128 () in
    Verlet.run s ~engine:Mdcore.Forces.gather_engine ~steps:6 ()
  in
  let s = Mdcore.Init.build ~seed:21 ~n:128 () in
  let before = Mdfault.guard_restores () in
  (* call 1 is prepare; corrupt the force evaluation of step 3 once *)
  let records =
    Verlet.run s
      ~engine:(corrupting_engine ~corrupt_calls:[ 4 ])
      ~steps:6 ~guard:Verlet.default_guard ()
  in
  Alcotest.(check bool) "guard restore counted" true
    (Mdfault.guard_restores () > before);
  Alcotest.(check bool) "trajectory equals fault-free reference" true
    (records = reference)

let test_guard_escalates_persistent_corruption () =
  let s = Mdcore.Init.build ~seed:21 ~n:128 () in
  (* corrupt every force evaluation: restores can never succeed *)
  let engine =
    Mdcore.Engine.make ~name:"always-corrupt" ~compute:(fun s ->
        let pe = Mdcore.Forces.gather_engine.Mdcore.Engine.compute s in
        s.System.acc_x.{0} <- Float.nan;
        pe)
  in
  match
    Verlet.run s ~engine ~steps:4
      ~guard:{ Verlet.default_guard with Verlet.max_restores = 2 }
      ()
  with
  | _ -> Alcotest.fail "persistent corruption survived the guard"
  | exception Verlet.Invariant_violation msg ->
    Alcotest.(check bool) "message mentions the invariant" true
      (String.length msg > 0)

let test_runner_suspends_on_persistent_violation () =
  (* A checkpointed run under an installed guard with unrecoverable
     corruption suspends (newest valid generation intact) instead of
     crashing.  mem-bitflip at rate 1 corrupts detected-path reads, so
     drive the guard through the runner with an impossible bound. *)
  let dir = fresh_dir () in
  Verlet.install_guard
    { Verlet.max_energy_jump = 0.0;
      max_momentum_drift = 0.0;
      max_restores = 1 };
  Fun.protect ~finally:Verlet.clear_guard (fun () ->
      Mdfault.set_guard_restores 0;
      let s = suspended (Runner.run (cfg ~dir ())) in
      Alcotest.(check bool) "reason names the invariant" true
        (String.length s.Runner.sus_reason > 0);
      Alcotest.(check bool) "a durable generation exists" true
        (Mdckpt.generations ~dir <> []);
      (* cfg_every = 0, the path of every plain [mdsim run]: the same
         suspension, with nothing written. *)
      let dir = fresh_dir () in
      let s = suspended (Runner.run (cfg ~every:0 ~dir ())) in
      Alcotest.(check bool) "unsegmented: reason names the invariant" true
        (String.length s.Runner.sus_reason > 0);
      Alcotest.(check bool) "unsegmented: no checkpoint path" true
        (s.Runner.sus_path = None);
      Alcotest.(check bool) "unsegmented: no generation written" true
        (Mdckpt.generations ~dir = []))

(* ------------------------------------------------------------------ *)
(* Deadline supervision                                                *)
(* ------------------------------------------------------------------ *)

let test_runner_deadline_suspends () =
  let dir = fresh_dir () in
  Mdfault.set_guard_restores 0;
  let s =
    suspended
      (Runner.run ~deadline:1e-4 (cfg ~atoms:200 ~steps:400 ~every:50 ~dir ()))
  in
  Alcotest.(check bool) "reason names the deadline" true
    (contains s.Runner.sus_reason "deadline");
  Alcotest.(check bool) "durable checkpoint for resume" true
    (s.Runner.sus_path <> None);
  (* the interrupted work is still resumable (without the deadline) *)
  Mdfault.set_guard_restores 0;
  match Runner.resume dir with
  | Error msg -> Alcotest.failf "resume after deadline failed: %s" msg
  | Ok (Runner.Complete r) ->
    Alcotest.(check int) "all steps completed" 400 r.Mdports.Run_result.steps
  | Ok (Runner.Suspended _) -> Alcotest.fail "resume suspended again"

let test_report_deadline_classifies_degraded () =
  let ctx = Harness.Context.create ~scale:Harness.Context.quick_scale () in
  let e =
    match Harness.Registry.find "table1" with
    | Some e -> e
    | None -> Alcotest.fail "table1 experiment missing"
  in
  let c = Harness.Report.run_one_classified ~deadline:1e-4 ctx e in
  Alcotest.(check string) "status" "degraded"
    (Harness.Report.status_name c.Harness.Report.status);
  (match c.Harness.Report.error with
  | Some msg ->
    Alcotest.(check string) "deterministic message"
      "wall-clock deadline (0.0001s) exceeded" msg
  | None -> Alcotest.fail "degraded entry carries no error");
  Alcotest.(check bool) "synthesized outcome fails its completed check"
    false
    (Harness.Experiment.all_passed c.Harness.Report.outcome)

(* ------------------------------------------------------------------ *)
(* Harness run manifest                                                *)
(* ------------------------------------------------------------------ *)

let manifest_entry ~id ~status =
  let table = Sim_util.Table.create ~headers:[ "a"; "b" ] in
  Sim_util.Table.add_row table [ "1"; "2" ];
  { Harness.Manifest.ent_id = id;
    ent_key = "";
    ent_status = status;
    ent_error = (if status = "ok" then None else Some "boom");
    ent_faults = Mdfault.summary ~prefix:"no-such-stream/" ();
    ent_outcome =
      { Harness.Experiment.id;
        title = "Entry " ^ id;
        table;
        checks = [ { Harness.Experiment.name = "c"; passed = true; detail = "d" } ];
        notes = [ "n1" ];
        figure = Some "fig";
        virtual_seconds = [ ("opteron", 0.25) ] } }

let open_manifest ~path ~key =
  match Harness.Manifest.load_or_create ~path ~key with
  | Ok m -> m
  | Error msg -> Alcotest.failf "manifest open failed: %s" msg

let test_manifest_roundtrip_and_reuse () =
  let path = Filename.concat (fresh_dir ()) "manifest.bin" in
  let m = open_manifest ~path ~key:"k1" in
  Harness.Manifest.record m (manifest_entry ~id:"table1" ~status:"ok");
  Harness.Manifest.record m (manifest_entry ~id:"fig5" ~status:"degraded");
  Harness.Manifest.close m;
  let m2 = open_manifest ~path ~key:"k1" in
  Alcotest.(check int) "both entries persisted" 2
    (Harness.Manifest.entry_count m2);
  (match Harness.Manifest.find m2 "table1" with
  | Some e ->
    Alcotest.(check string) "outcome survives" "Entry table1"
      e.Harness.Manifest.ent_outcome.Harness.Experiment.title;
    Alcotest.(check bool) "figure survives" true
      (e.Harness.Manifest.ent_outcome.Harness.Experiment.figure = Some "fig")
  | None -> Alcotest.fail "finished entry not reusable");
  (* degraded entries are retried, not reused *)
  Alcotest.(check bool) "degraded entry is not reusable" true
    (Harness.Manifest.find m2 "fig5" = None);
  Harness.Manifest.close m2

(* The manifest is single-writer: while one holder has it open, a second
   load_or_create — same process or another — must fail with a one-line
   error rather than hand out a manifest whose rewrites would
   interleave. *)
let test_manifest_second_writer_rejected () =
  let path = Filename.concat (fresh_dir ()) "manifest.bin" in
  let m = open_manifest ~path ~key:"k1" in
  (match Harness.Manifest.load_or_create ~path ~key:"k1" with
  | Ok _ -> Alcotest.fail "second manifest writer should have been rejected"
  | Error msg ->
    Alcotest.(check bool) "error mentions lock" true (contains msg "lock"));
  Harness.Manifest.close m;
  let m2 = open_manifest ~path ~key:"k1" in
  Harness.Manifest.close m2

let test_manifest_rejects_wrong_key_and_corruption () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "manifest.bin" in
  let m = open_manifest ~path ~key:"k1" in
  Harness.Manifest.record m (manifest_entry ~id:"table1" ~status:"ok");
  Harness.Manifest.close m;
  (* a different configuration key must not reuse anything *)
  let other = open_manifest ~path ~key:"k2" in
  Alcotest.(check int) "foreign-key entries dropped" 0
    (Harness.Manifest.entry_count other);
  Harness.Manifest.close other;
  (* corrupt file: one-line rejection, treated as empty *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc 40;
  output_string oc "\xff\xff\xff\xff";
  close_out oc;
  let recovered = open_manifest ~path ~key:"k1" in
  Alcotest.(check int) "corrupt manifest treated as empty" 0
    (Harness.Manifest.entry_count recovered);
  Harness.Manifest.close recovered

let test_manifest_resume_skips_finished () =
  let ctx = Harness.Context.create ~scale:Harness.Context.quick_scale () in
  let e =
    match Harness.Registry.find "table1" with
    | Some e -> e
    | None -> Alcotest.fail "table1 experiment missing"
  in
  let path = Filename.concat (fresh_dir ()) "manifest.bin" in
  let m = open_manifest ~path ~key:"quick" in
  let first = Harness.Report.run_list_classified ~manifest:m ctx [ e ] in
  Harness.Manifest.close m;
  (* second run must reuse the entry: plant a marker title to prove the
     stored result (not a re-run) is returned *)
  let m2 = open_manifest ~path ~key:"quick" in
  (match Harness.Manifest.find m2 "table1" with
  | Some entry ->
    Harness.Manifest.record m2
      { entry with
        Harness.Manifest.ent_outcome =
          { entry.Harness.Manifest.ent_outcome with
            Harness.Experiment.title = "FROM-MANIFEST" } }
  | None -> Alcotest.fail "entry missing after first run");
  Harness.Manifest.close m2;
  let m3 = open_manifest ~path ~key:"quick" in
  let second = Harness.Report.run_list_classified ~manifest:m3 ctx [ e ] in
  Harness.Manifest.close m3;
  (match (first, second) with
  | [ a ], [ b ] ->
    Alcotest.(check bool) "first run executed (not from manifest)" false
      (a.Harness.Report.outcome.Harness.Experiment.title = "FROM-MANIFEST");
    Alcotest.(check string) "second run reused the manifest entry"
      "FROM-MANIFEST" b.Harness.Report.outcome.Harness.Experiment.title
  | _ -> Alcotest.fail "unexpected result shape")

let tests =
  ( "ckpt",
    [ Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
      Alcotest.test_case "encode/decode round trip" `Quick test_roundtrip;
      Alcotest.test_case "pre-counters checkpoints decode" `Quick
        test_decode_without_counters_section;
      Alcotest.test_case "blit encoder matches portable" `Quick
        test_blit_matches_portable;
      Alcotest.test_case "non-empty rng or thermostat section rejected" `Quick
        test_nonempty_reserved_section_rejected;
      Alcotest.test_case "rng gaussian cache resumes" `Quick
        test_rng_state_resumes_gaussian_cache;
      Alcotest.test_case "corrupt byte rejected" `Quick
        test_corrupt_byte_rejected;
      Alcotest.test_case "truncated rejected" `Quick test_truncated_rejected;
      Alcotest.test_case "wrong schema rejected" `Quick
        test_wrong_schema_rejected;
      Alcotest.test_case "gc keeps K generations" `Quick test_gc_keeps_k;
      Alcotest.test_case "load_latest falls back past corruption" `Quick
        test_load_latest_falls_back;
      Alcotest.test_case "load_latest empty dir" `Quick
        test_load_latest_empty_dir;
      Alcotest.test_case "kill+resume bitwise (domains 1)" `Quick
        test_kill_resume_domains1;
      Alcotest.test_case "kill+resume bitwise (domains 4)" `Quick
        test_kill_resume_domains4;
      Alcotest.test_case "kill+resume bitwise (pairlist active)" `Slow
        test_kill_resume_pairlist;
      Alcotest.test_case "kill+resume with fault plan (cell)" `Quick
        test_kill_resume_cell_with_faults;
      Alcotest.test_case "resume of completed checkpoint" `Quick
        test_resume_completed_checkpoint;
      Alcotest.test_case "guard restores silent corruption" `Quick
        test_guard_restores_silent_corruption;
      Alcotest.test_case "guard escalates persistent corruption" `Quick
        test_guard_escalates_persistent_corruption;
      Alcotest.test_case "runner suspends on persistent violation" `Quick
        test_runner_suspends_on_persistent_violation;
      Alcotest.test_case "runner deadline suspends durably" `Quick
        test_runner_deadline_suspends;
      Alcotest.test_case "report deadline classifies degraded" `Quick
        test_report_deadline_classifies_degraded;
      Alcotest.test_case "manifest round trip and reuse" `Quick
        test_manifest_roundtrip_and_reuse;
      Alcotest.test_case "manifest rejects wrong key / corruption" `Quick
        test_manifest_rejects_wrong_key_and_corruption;
      Alcotest.test_case "manifest second writer rejected" `Quick
        test_manifest_second_writer_rejected;
      Alcotest.test_case "manifest resume skips finished" `Quick
        test_manifest_resume_skips_finished ] )
