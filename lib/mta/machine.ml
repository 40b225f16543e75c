module Units = Sim_util.Units

(* Virtual PMU counters (see DESIGN.md, "Profiling"): stream recruitment
   and memory pressure, the quantities behind the paper's MTA scaling
   discussion. *)
type prof_set = {
  p_regions_parallel : Mdprof.counter;
  p_regions_serial : Mdprof.counter;
  p_instructions : Mdprof.counter;
  p_memory_refs : Mdprof.counter;
  p_sync_retries : Mdprof.counter;
  p_streams : Mdprof.histogram;
}

(* Power-of-two stream-occupancy buckets up to the MTA-2's 128 streams
   x 40 procs ceiling; fixed bounds keep exports deterministic. *)
let stream_buckets =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.;
     8192. |]

type t = {
  cfg : Config.t;
  ledger : Ledger.t;
  mutable wall : float;
  mutable current_concurrency : float;
      (* concurrency of the region being executed; 1 outside regions *)
  obs : Mdobs.track option;  (* virtual-clock machine track *)
  prof : prof_set option;
  ft_retry : Mdfault.stream;  (* full/empty-bit hot-spot retry storms *)
}

let make_prof () =
  if not (Mdprof.enabled ()) then None
  else
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    Some
      {
        p_regions_parallel = c "mta/regions_parallel";
        p_regions_serial = c "mta/regions_serial";
        p_instructions = c ~unit_:"ops" "mta/instructions";
        p_memory_refs = c ~unit_:"refs" "mta/memory_refs";
        p_sync_retries = c "mta/sync_retries";
        p_streams =
          Mdprof.histogram ~unit_:"streams" ~clock:Mdprof.Virtual
            ~buckets:stream_buckets "mta/streams";
      }

let create cfg =
  Config.validate cfg;
  let obs =
    if Mdobs.enabled () then Some (Mdobs.new_track ~clock:Mdobs.Virtual "mta")
    else None
  in
  { cfg; ledger = Ledger.create (); wall = 0.0; current_concurrency = 1.0; obs;
    prof = make_prof ();
    ft_retry = Mdfault.stream Mdfault.Mta_retry "mta" }

let time t = t.wall
let ledger t = t.ledger

let charge t cat seconds =
  t.wall <- t.wall +. seconds;
  Ledger.add t.ledger cat seconds

let effective_latency t =
  float_of_int t.cfg.mem_latency *. t.cfg.nonuniform_penalty

(* Single-stream cost of one iteration: every instruction issues in one
   cycle; every memory reference additionally waits out the (uniform)
   memory latency because one stream has nothing else to issue. *)
let serial_iter_cycles t loop =
  let instrs = float_of_int (Loop.instructions loop) in
  let mem = float_of_int (Loop.memory_ops loop) in
  instrs +. (mem *. effective_latency t)

let serial_seconds t ~loop ~n =
  if n < 0 then invalid_arg "Mta.Machine.serial_seconds: n < 0";
  Units.seconds_of_cycles t.cfg.clock
    (float_of_int n *. serial_iter_cycles t loop)

let concurrency t ~n = min n (t.cfg.n_procs * t.cfg.streams_per_proc)

let parallel_cycles t ~loop ~n =
  if n = 0 then 0.0
  else begin
    let iters = float_of_int n in
    let procs = float_of_int t.cfg.n_procs in
    let k = float_of_int (concurrency t ~n) in
    (* Saturated processors retire one instruction per cycle. *)
    let issue_bound = iters *. float_of_int (Loop.instructions loop) /. procs in
    (* Under-saturated processors are limited by per-stream latency. *)
    let latency_bound = iters *. serial_iter_cycles t loop /. k in
    Float.max issue_bound latency_bound
  end

let parallel_seconds t ~loop ~n =
  if n < 0 then invalid_arg "Mta.Machine.parallel_seconds: n < 0";
  if n = 0 then 0.0
  else
    Units.seconds_of_cycles t.cfg.clock
      (parallel_cycles t ~loop ~n +. float_of_int t.cfg.region_overhead)

let charged_region t ~loop ~n ~f =
  if n < 0 then invalid_arg "Mta.Machine.charged_region: n < 0";
  let parallel = Loop.parallelizable loop in
  let t0 = t.wall in
  t.current_concurrency <-
    (if parallel && n > 0 then float_of_int (concurrency t ~n) else 1.0);
  let result =
    Fun.protect ~finally:(fun () -> t.current_concurrency <- 1.0) f
  in
  if n > 0 then
    if parallel then begin
      charge t Region
        (Units.seconds_of_cycles t.cfg.clock
           (float_of_int t.cfg.region_overhead));
      charge t Parallel
        (Units.seconds_of_cycles t.cfg.clock (parallel_cycles t ~loop ~n))
    end
    else charge t Serial (serial_seconds t ~loop ~n);
  (match t.prof with
  | Some p when n > 0 ->
      let streams = if parallel then concurrency t ~n else 1 in
      Mdprof.incr (if parallel then p.p_regions_parallel else p.p_regions_serial);
      Mdprof.add p.p_instructions (n * Loop.instructions loop);
      Mdprof.add p.p_memory_refs (n * Loop.memory_ops loop);
      Mdprof.observe p.p_streams (float_of_int streams)
  | _ -> ());
  (match t.obs with
  | Some tr ->
    (* One span per compiler region: the stream-scheduling story — how
       many hardware streams the region recruited and whether the
       compiler parallelized it at all. *)
    Mdobs.span tr ~name:loop.Loop.name ~ts:t0 ~dur:(t.wall -. t0)
      ~args:
        [ ("iterations", Mdobs.Int n);
          ("streams",
           Mdobs.Int (if parallel && n > 0 then concurrency t ~n else 1));
          ("parallelized", Mdobs.Int (if parallel then 1 else 0)) ]
      ()
  | None -> ());
  result

let for_loop t ~loop ~n ~f =
  if n < 0 then invalid_arg "Mta.Machine.for_loop: n < 0";
  if n > 0 then
    charged_region t ~loop ~n ~f:(fun () ->
        for i = 0 to n - 1 do
          f i
        done)

let sync_cycles t =
  float_of_int t.cfg.sync_retry_cycles /. t.current_concurrency

let charge_sync_op t =
  (match t.prof with
  | Some p -> Mdprof.incr p.p_sync_retries
  | None -> ());
  let cycles = sync_cycles t in
  (* A hot full/empty bit makes this sync op spin through a storm of
     extra retries; the livelock watchdog in Mdfault.storm raises once
     too many consecutive ops storm.  Backoff accrues at full rate —
     a stalled stream is not hidden by the machine's parallelism. *)
  let cycles, backoff =
    if Mdfault.inert t.ft_retry then (cycles, 0.0)
    else
      let extra, backoff =
        Mdfault.storm t.ft_retry ~detail:(fun () ->
            Printf.sprintf "hot full/empty bit, concurrency %.1f"
              t.current_concurrency)
      in
      ( cycles
        +. float_of_int (extra * t.cfg.sync_retry_cycles)
           /. t.current_concurrency,
        backoff )
  in
  charge t Sync (Units.seconds_of_cycles t.cfg.clock cycles +. backoff)

(* Without a live retry-fault stream every op charges the same amount,
   so the k clock and ledger additions run as local loops — bitwise the
   k separate [charge] calls.  With one, each op keeps its own storm
   draw, in order. *)
let charge_sync_ops t k =
  if k < 0 then invalid_arg "Mta.Machine.charge_sync_ops: k < 0";
  if not (Mdfault.inert t.ft_retry) then
    for _ = 1 to k do
      charge_sync_op t
    done
  else if k > 0 then begin
    (match t.prof with
    | Some p -> Mdprof.add p.p_sync_retries k
    | None -> ());
    (* [+. 0.0]: the zero backoff [charge_sync_op] adds. *)
    let seconds =
      Units.seconds_of_cycles t.cfg.clock (sync_cycles t) +. 0.0
    in
    let wall = ref t.wall in
    for _ = 1 to k do
      wall := !wall +. seconds
    done;
    t.wall <- !wall;
    Ledger.add_repeated t.ledger Sync seconds k
  end
