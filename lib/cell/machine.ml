module Units = Sim_util.Units

(* Virtual PMU counters published per machine (see DESIGN.md,
   "Profiling").  Registered at creation so machines built while
   profiling is disabled stay untracked, mirroring the obs tracks. *)
type prof_set = {
  p_offloads : Mdprof.counter;
  p_spawns : Mdprof.counter;
  p_mailbox_roundtrips : Mdprof.counter;
  p_compute_seconds : Mdprof.counter;
  p_dma_seconds : Mdprof.counter;
  p_spe_busy_seconds : Mdprof.counter;
  p_spe_window_seconds : Mdprof.counter;
  p_stall_seconds : Mdprof.counter;
  p_dma_bytes : Mdprof.counter;
  p_spe_dma_bytes : Mdprof.counter array;
  p_spe_dma_transfers : Mdprof.counter array;
}

type t = {
  cfg : Config.t;
  ledger : Ledger.t;
  stores : Local_store.t array;
  mutable wall : float;
  mutable spawned : int;
  obs : Mdobs.track option;       (* virtual-clock machine track *)
  obs_spes : Mdobs.track array;   (* one per SPE; empty when untraced *)
  prof : prof_set option;
  ft_dma : Mdfault.stream;        (* DMA CRC errors -> retransmit *)
  ft_mailbox : Mdfault.stream;    (* mailbox timeouts -> resend *)
}

let make_prof cfg =
  if not (Mdprof.enabled ()) then None
  else
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    Some
      {
        p_offloads = c "cell/offloads";
        p_spawns = c "cell/spawns";
        p_mailbox_roundtrips = c "cell/mailbox_roundtrips";
        p_compute_seconds = c ~unit_:"s" "cell/compute_seconds";
        p_dma_seconds = c ~unit_:"s" "cell/dma_seconds";
        p_spe_busy_seconds = c ~unit_:"s" "cell/spe_busy_seconds";
        p_spe_window_seconds = c ~unit_:"s" "cell/spe_window_seconds";
        p_stall_seconds = c ~unit_:"s" "cell/stall_seconds";
        p_dma_bytes = c ~unit_:"bytes" "cell/dma_bytes";
        p_spe_dma_bytes =
          Array.init cfg.Config.n_spes (fun i ->
              c ~unit_:"bytes" (Printf.sprintf "cell/spe%d/dma_bytes" i));
        p_spe_dma_transfers =
          Array.init cfg.Config.n_spes (fun i ->
              c (Printf.sprintf "cell/spe%d/dma_transfers" i));
      }

let create cfg =
  Config.validate cfg;
  let obs =
    if Mdobs.enabled () then Some (Mdobs.new_track ~clock:Mdobs.Virtual "cell")
    else None
  in
  let obs_spes =
    match obs with
    | Some _ ->
      Array.init cfg.n_spes (fun i ->
          Mdobs.new_track ~clock:Mdobs.Virtual (Printf.sprintf "cell/spe%d" i))
    | None -> [||]
  in
  { cfg;
    ledger = Ledger.create ();
    stores =
      Array.init cfg.n_spes (fun _ ->
          Local_store.create ~capacity_bytes:cfg.ls_bytes);
    wall = 0.0;
    spawned = 0;
    obs;
    obs_spes;
    prof = make_prof cfg;
    ft_dma = Mdfault.stream Mdfault.Cell_dma "cell";
    ft_mailbox = Mdfault.stream Mdfault.Cell_mailbox "cell" }

let time t = t.wall
let ledger t = t.ledger

let reset t =
  t.wall <- 0.0;
  t.spawned <- 0;
  Ledger.reset t.ledger;
  Array.iter Local_store.reset t.stores

let spawned_spes t = t.spawned

type spe_ctx = {
  machine : t;
  id : int;
  active_spes : int; (* concurrency of the enclosing offload *)
  store : Local_store.t;
  mutable dma : float;
  mutable compute : float;
}

let spe_id ctx = ctx.id
let local_store ctx = ctx.store

(* Effective per-SPE bandwidth: one engine's own limit, or a fair share
   of the memory interface when several SPEs stream concurrently. *)
let effective_bandwidth t ~active_spes =
  Float.min t.cfg.dma_bandwidth
    (t.cfg.mem_bandwidth /. float_of_int (max 1 active_spes))

let dma_requests t ~bytes =
  let chunk = t.cfg.dma_max_request in
  let requests = (bytes + chunk - 1) / chunk in
  max requests (if bytes = 0 then 0 else 1)

let dma_seconds ?(active_spes = 1) t ~bytes =
  if bytes < 0 then invalid_arg "Machine.dma_seconds: negative size";
  let requests = dma_requests t ~bytes in
  (float_of_int requests *. t.cfg.dma_latency)
  +. (float_of_int bytes /. effective_bandwidth t ~active_spes)

let count_dma ctx ~bytes =
  match ctx.machine.prof with
  | Some p ->
      Mdprof.add p.p_dma_bytes bytes;
      Mdprof.add p.p_spe_dma_bytes.(ctx.id) bytes;
      Mdprof.add p.p_spe_dma_transfers.(ctx.id) (dma_requests ctx.machine ~bytes)
  | None -> ()

(* A CRC-failed DMA transfer is retransmitted whole: each faulted
   attempt re-pays the full transfer time, plus the plan's exponential
   backoff — all virtual seconds on the SPE's DMA clock. *)
let dma_fault_penalty ctx ~bytes =
  if Mdfault.inert ctx.machine.ft_dma then 0.0
  else
    let failures, backoff =
      Mdfault.attempt ctx.machine.ft_dma ~detail:(fun () ->
          Printf.sprintf "spe%d dma crc, %d bytes" ctx.id bytes)
    in
    if failures = 0 then 0.0
    else
      float_of_int failures
      *. dma_seconds ~active_spes:ctx.active_spes ctx.machine ~bytes
      +. backoff

let dma_get ctx ~src ~src_pos ~dst ~dst_pos ~len =
  Local_store.blit_from_array ~src ~src_pos ~dst ~dst_pos ~len;
  count_dma ctx ~bytes:(len * 4);
  ctx.dma <-
    ctx.dma
    +. dma_seconds ~active_spes:ctx.active_spes ctx.machine ~bytes:(len * 4)
    +. dma_fault_penalty ctx ~bytes:(len * 4)

let dma_put ctx ~src ~src_pos ~dst ~dst_pos ~len =
  Local_store.blit_to_array ~src ~src_pos ~dst ~dst_pos ~len;
  count_dma ctx ~bytes:(len * 4);
  ctx.dma <-
    ctx.dma
    +. dma_seconds ~active_spes:ctx.active_spes ctx.machine ~bytes:(len * 4)
    +. dma_fault_penalty ctx ~bytes:(len * 4)

let charge_cycles ctx cycles =
  if cycles < 0.0 then invalid_arg "Machine.charge_cycles: negative";
  ctx.compute <-
    ctx.compute +. Units.seconds_of_cycles ctx.machine.cfg.clock cycles

let charge_block ctx block ~iterations ~overlap =
  charge_cycles ctx (Isa.Spe_pipe.loop_cycles block ~iterations ~overlap)

type launch_mode = Respawn | Persistent

let offload t ~spes ~mode kernel =
  if spes < 1 || spes > t.cfg.n_spes then
    invalid_arg
      (Printf.sprintf "Machine.offload: spes=%d not in [1, %d]" spes
         t.cfg.n_spes);
  (* Launch cost, serialized on the PPE. *)
  let spawn_count, signal_count =
    match mode with
    | Respawn ->
      t.spawned <- 0;
      (spes, 0)
    | Persistent ->
      let fresh = max 0 (spes - t.spawned) in
      t.spawned <- max t.spawned spes;
      (* Two blocking mailbox operations per SPE per offload: "go" and
         completion notification. *)
      (fresh, 2 * spes)
  in
  let spawn_time = float_of_int spawn_count *. t.cfg.spawn_seconds in
  let signal_time = float_of_int signal_count *. t.cfg.mailbox_seconds in
  (* A timed-out mailbox roundtrip is resent; the resends serialize on
     the PPE like the original signals. *)
  let signal_time =
    if Mdfault.inert t.ft_mailbox then signal_time
    else begin
      let extra = ref 0.0 in
      for op = 1 to signal_count do
        let failures, backoff =
          Mdfault.attempt t.ft_mailbox ~detail:(fun () ->
              Printf.sprintf "mailbox op %d/%d timeout" op signal_count)
        in
        if failures > 0 then
          extra :=
            !extra
            +. (float_of_int failures *. t.cfg.mailbox_seconds)
            +. backoff
      done;
      signal_time +. !extra
    end
  in
  let t0 = t.wall in
  let busy_start = t0 +. spawn_time +. signal_time in
  (* Run the kernels; virtual time advances by the slowest SPE. *)
  let critical_dma = ref 0.0 and critical_compute = ref 0.0 in
  let critical = ref (-1.0) and critical_spe = ref (-1) in
  let busy_sum = ref 0.0 in
  for id = 0 to spes - 1 do
    let store = t.stores.(id) in
    Local_store.reset store;
    let ctx =
      { machine = t; id; active_spes = spes; store; dma = 0.0; compute = 0.0 }
    in
    kernel ctx;
    if id < Array.length t.obs_spes then
      Mdobs.span t.obs_spes.(id) ~name:"busy" ~ts:busy_start
        ~dur:(ctx.dma +. ctx.compute)
        ~args:
          [ ("dma", Mdobs.Float ctx.dma);
            ("compute", Mdobs.Float ctx.compute) ]
        ();
    let busy = ctx.dma +. ctx.compute in
    busy_sum := !busy_sum +. busy;
    if busy > !critical then begin
      critical := busy;
      critical_spe := id;
      critical_dma := ctx.dma;
      critical_compute := ctx.compute
    end
  done;
  t.wall <- t.wall +. spawn_time +. signal_time +. !critical_dma
            +. !critical_compute;
  Ledger.add t.ledger Spawn spawn_time;
  Ledger.add t.ledger Signal signal_time;
  Ledger.add t.ledger Dma !critical_dma;
  Ledger.add t.ledger Compute !critical_compute;
  (match t.prof with
  | Some p ->
      (* The offload window is the critical SPE's busy time replicated
         across all recruited SPEs; window minus summed busy is the
         aggregate stall the paper's load-imbalance discussion is
         about. *)
      let window = !critical *. float_of_int spes in
      Mdprof.incr p.p_offloads;
      Mdprof.add p.p_spawns spawn_count;
      Mdprof.add p.p_mailbox_roundtrips (signal_count / 2);
      Mdprof.add_f p.p_compute_seconds !critical_compute;
      Mdprof.add_f p.p_dma_seconds !critical_dma;
      Mdprof.add_f p.p_spe_busy_seconds !busy_sum;
      Mdprof.add_f p.p_spe_window_seconds window;
      Mdprof.add_f p.p_stall_seconds (window -. !busy_sum)
  | None -> ());
  match t.obs with
  | Some tr ->
    Mdobs.span tr ~name:"offload" ~ts:t0 ~dur:(t.wall -. t0)
      ~args:
        [ ("spes", Mdobs.Int spes);
          ("spawned", Mdobs.Int spawn_count);
          ("signals", Mdobs.Int signal_count);
          ("spawn_s", Mdobs.Float spawn_time);
          ("signal_s", Mdobs.Float signal_time);
          ("dma_s", Mdobs.Float !critical_dma);
          ("compute_s", Mdobs.Float !critical_compute);
          ("critical_spe", Mdobs.Int !critical_spe) ]
      ()
  | None -> ()

let ppe_charge t ~seconds =
  if seconds < 0.0 then invalid_arg "Machine.ppe_charge: negative";
  (match t.obs with
  | Some tr -> Mdobs.span tr ~name:"ppe" ~ts:t.wall ~dur:seconds ()
  | None -> ());
  t.wall <- t.wall +. seconds;
  Ledger.add t.ledger Ppe seconds

let ppe_block t block ~iterations =
  let cycles =
    Isa.Opteron_pipe.loop_cycles block ~iterations ~overlap:0.85
    *. t.cfg.ppe_slowdown
  in
  ppe_charge t ~seconds:(Units.seconds_of_cycles t.cfg.clock cycles)
