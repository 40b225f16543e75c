(* Tests for the MTA-2 model: loop parallelization decisions, the
   latency/throughput time bounds, and full/empty-bit cells. *)

module Config = Mta.Config
module Ledger = Mta.Ledger
module Loop = Mta.Loop
module Machine = Mta.Machine
module Op = Isa.Op
module Block = Isa.Block

let body =
  Block.of_instrs
    [ { Block.op = Op.Load; deps = [] };
      { Block.op = Op.Fadd; deps = [] };
      { Block.op = Op.Fmul; deps = [] } ]

let parallel_loop = Loop.make ~name:"par" ~body ()

let serial_loop =
  Loop.make ~name:"ser" ~body ~carries_dependency:true ()

let pragma_loop =
  Loop.make ~name:"pragma" ~body ~carries_dependency:true
    ~pragma_no_dependence:true ()

let cfg = Config.mta2 ()

let test_config_defaults () =
  Config.validate cfg;
  Alcotest.(check int) "128 streams" 128 cfg.Config.streams_per_proc;
  Alcotest.(check (float 1.0)) "200 MHz" 200e6 cfg.Config.clock.Sim_util.Units.hz

let test_loop_parallelizable () =
  Alcotest.(check bool) "clean loop parallel" true
    (Loop.parallelizable parallel_loop);
  Alcotest.(check bool) "dependency blocks" false
    (Loop.parallelizable serial_loop);
  Alcotest.(check bool) "pragma overrides" true
    (Loop.parallelizable pragma_loop)

let test_loop_counts () =
  Alcotest.(check int) "instructions" 3 (Loop.instructions parallel_loop);
  Alcotest.(check int) "memory ops" 1 (Loop.memory_ops parallel_loop)

let test_serial_pays_latency () =
  let m = Machine.create cfg in
  let s = Machine.serial_seconds m ~loop:serial_loop ~n:1000 in
  (* 3 instrs + 1 mem * 100 cycles latency, per iteration *)
  let expected = 1000.0 *. (3.0 +. 100.0) /. 200e6 in
  Alcotest.(check (float 1e-12)) "serial cost" expected s

let test_parallel_saturated_issue_bound () =
  let m = Machine.create cfg in
  (* Far more iterations than streams: issue-throughput bound. *)
  let n = 1_000_000 in
  let s = Machine.parallel_seconds m ~loop:parallel_loop ~n in
  let issue_bound = float_of_int (n * 3) /. 200e6 in
  Alcotest.(check bool) "close to issue bound" true
    (s >= issue_bound && s < issue_bound *. 1.01)

let test_parallel_undersaturated_latency_bound () =
  let m = Machine.create cfg in
  (* Fewer iterations than streams: each stream's latency is exposed. *)
  let n = 16 in
  let s = Machine.parallel_seconds m ~loop:parallel_loop ~n in
  let per_iter = (3.0 +. 100.0) /. 200e6 in
  let overhead = float_of_int cfg.Config.region_overhead /. 200e6 in
  Alcotest.(check (float 1e-12)) "latency bound with concurrency n"
    (per_iter +. overhead) s

let test_parallel_beats_serial () =
  let m = Machine.create cfg in
  let n = 100_000 in
  Alcotest.(check bool) "parallel much faster" true
    (Machine.parallel_seconds m ~loop:parallel_loop ~n
    < Machine.serial_seconds m ~loop:parallel_loop ~n /. 10.0)

let test_more_processors_help () =
  let one = Machine.create (Config.mta2 ~n_procs:1 ()) in
  let four = Machine.create (Config.mta2 ~n_procs:4 ()) in
  let n = 1_000_000 in
  let s1 = Machine.parallel_seconds one ~loop:parallel_loop ~n in
  let s4 = Machine.parallel_seconds four ~loop:parallel_loop ~n in
  Alcotest.(check bool) "4 procs ~4x faster" true
    (s1 /. s4 > 3.5 && s1 /. s4 < 4.5)

let test_concurrency_cap () =
  let m = Machine.create cfg in
  Alcotest.(check int) "capped by streams" 128 (Machine.concurrency m ~n:4096);
  Alcotest.(check int) "capped by n" 16 (Machine.concurrency m ~n:16)

let test_for_loop_executes_and_charges () =
  let m = Machine.create cfg in
  let count = ref 0 in
  Machine.for_loop m ~loop:parallel_loop ~n:10 ~f:(fun _ -> incr count);
  Alcotest.(check int) "body ran n times" 10 !count;
  Alcotest.(check bool) "time charged" true (Machine.time m > 0.0);
  Alcotest.(check (float 1e-15)) "ledger total = time" (Machine.time m)
    (Ledger.total (Machine.ledger m))

let test_for_loop_serial_category () =
  let m = Machine.create cfg in
  Machine.for_loop m ~loop:serial_loop ~n:10 ~f:(fun _ -> ());
  Alcotest.(check bool) "charged as serial" true
    (Ledger.get (Machine.ledger m) Ledger.Serial > 0.0);
  Alcotest.(check (float 1e-15)) "no parallel time" 0.0
    (Ledger.get (Machine.ledger m) Ledger.Parallel)

let test_xmt_nonuniform_penalty () =
  let xmt = Config.xmt_like ~n_procs:1 () in
  Machine.(
    let m = create xmt in
    let uniform = create (Config.mta2 ()) in
    let n = 16 in
    let sx = parallel_seconds m ~loop:parallel_loop ~n in
    let su = parallel_seconds uniform ~loop:parallel_loop ~n in
    (* The XMT clock is faster but remote references cost more; at low
       concurrency the under-saturated latency bound shows the penalty. *)
    ignore su;
    Alcotest.(check bool) "nonuniform latency visible" true
      (sx *. 500e6 > float_of_int (3 + 150)))

(* ---------------- Full/empty-bit sync ---------------- *)

let test_sync_charges_time () =
  let m = Machine.create cfg in
  Machine.charge_sync_op m;
  Alcotest.(check bool) "sync time accounted" true
    (Ledger.get (Machine.ledger m) Ledger.Sync > 0.0)

let test_sync_cheaper_inside_parallel_region () =
  let cost_in_region ~loop =
    let m = Machine.create cfg in
    Machine.charged_region m ~loop ~n:1000 ~f:(fun () ->
        Machine.charge_sync_op m);
    Ledger.get (Machine.ledger m) Ledger.Sync
  in
  Alcotest.(check bool) "contention amortized across streams" true
    (cost_in_region ~loop:pragma_loop < cost_in_region ~loop:serial_loop)

(* [charge_sync_ops m k] leaves the clock, the Sync ledger category and
   mta/sync_retries bitwise where k [charge_sync_op] calls do — inside a
   parallel region (fractional per-op cost) and out of one, without a
   fault plan and with a live mta-retry stream (whose per-op storm draws
   it must replay in order). *)
let test_charge_sync_ops_matches_single_ops () =
  let k = 5000 in
  let run ~batched ~loop spec =
    let go () =
      Mdprof.clear ();
      Mdprof.enable ();
      Fun.protect ~finally:Mdprof.clear (fun () ->
          let m = Machine.create cfg in
          Machine.charged_region m ~loop ~n:1000 ~f:(fun () ->
              if batched then Machine.charge_sync_ops m k
              else
                for _ = 1 to k do
                  Machine.charge_sync_op m
                done);
          let retries =
            match Mdprof.find "mta/sync_retries" with
            | Some c -> c.Mdprof.s_value
            | None -> Alcotest.fail "mta/sync_retries not registered"
          in
          [ Machine.time m;
            Ledger.get (Machine.ledger m) Ledger.Sync;
            retries ])
    in
    match spec with
    | None -> go ()
    | Some text ->
      (match Mdfault.parse_spec text with
      | Ok plan -> Mdfault.install plan
      | Error e -> Alcotest.failf "bad fault spec %S: %s" text e);
      Fun.protect ~finally:Mdfault.uninstall go
  in
  let agree (spec, loop) =
    let single = run ~batched:false ~loop spec
    and batched = run ~batched:true ~loop spec in
    List.iter2
      (fun a b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, %s: %h = %h"
             (Option.value spec ~default:"no plan") loop.Loop.name a b)
          true
          (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)))
      single batched;
    List.nth single 1
  in
  let clean = agree (None, pragma_loop) in
  ignore (agree (None, serial_loop));
  let stormy = agree (Some "mta-retry:0.05,seed=5", pragma_loop) in
  Alcotest.(check bool) "the retry stream stormed" true (stormy > clean);
  Alcotest.(check bool) "negative count rejected" true
    (try
       Machine.charge_sync_ops (Machine.create cfg) (-1);
       false
     with Invalid_argument _ -> true)

let tests =
  ( "mta",
    [ Alcotest.test_case "config defaults" `Quick test_config_defaults;
      Alcotest.test_case "loop parallelizable" `Quick
        test_loop_parallelizable;
      Alcotest.test_case "loop counts" `Quick test_loop_counts;
      Alcotest.test_case "serial pays latency" `Quick test_serial_pays_latency;
      Alcotest.test_case "parallel issue bound" `Quick
        test_parallel_saturated_issue_bound;
      Alcotest.test_case "parallel latency bound" `Quick
        test_parallel_undersaturated_latency_bound;
      Alcotest.test_case "parallel beats serial" `Quick
        test_parallel_beats_serial;
      Alcotest.test_case "more processors help" `Quick
        test_more_processors_help;
      Alcotest.test_case "concurrency cap" `Quick test_concurrency_cap;
      Alcotest.test_case "for_loop executes and charges" `Quick
        test_for_loop_executes_and_charges;
      Alcotest.test_case "serial category" `Quick test_for_loop_serial_category;
      Alcotest.test_case "xmt nonuniform penalty" `Quick
        test_xmt_nonuniform_penalty;
      Alcotest.test_case "sync charges time" `Quick test_sync_charges_time;
      Alcotest.test_case "sync cheaper in parallel region" `Quick
        test_sync_cheaper_inside_parallel_region;
      Alcotest.test_case "batched sync charge = single ops" `Quick
        test_charge_sync_ops_matches_single_ops
    ] )
