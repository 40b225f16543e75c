module F32 = Sim_util.F32
module Vec4f = Vecmath.Vec4f
module Machine = Gpustream.Machine
module Ledger = Gpustream.Ledger
module Pipe = Isa.Opteron_pipe

let host_clock = Sim_util.Units.clock ~hz:2.2e9 ~label:"host Opteron 2.2 GHz"

let host_seconds cycles = Sim_util.Units.seconds_of_cycles host_clock cycles

(* Per-atom CPU staging: build the float4 position array. *)
let charge_host_block machine block ~iterations =
  Machine.cpu_charge machine
    ~seconds:
      (host_seconds
         (Pipe.loop_cycles block ~iterations ~overlap:Kernels.opteron_overlap))

(* The fragment program: one row of the shared binary32 gather,
   accumulating acceleration in xyz and the PE contribution in w.  The
   brute shader ([All]) reads the whole position texture and cannot
   test j <> i; coincident atoms are excluded by the r2 > 0 guard, as
   the real shader does.  The pairlist shader ([Rows]) walks its row of
   the neighbour list: it fetches the per-row (start, count) descriptor
   (input 1) once, then per entry the packed index texel (input 2, four
   indices per float4) and the neighbour's position (input 0).  The
   arithmetic per contributing pair is exactly the brute fragment's, in
   the same ascending-j order, so trajectories are bitwise those of the
   N² shader.  Fragments may run on any domain of the pool, so the
   accumulator is the running domain's and the hit count lands in the
   fragment's own row slot. *)
let domain_acc = Domain.DLS.new_key F32_kernel.acc

let fragment p partners starts row_hits sampler i =
  let acc = Domain.DLS.get domain_acc in
  row_hits.(i) <-
    F32_kernel.gather p acc (Texture (sampler, starts)) partners i;
  Vec4f.make acc.F32_kernel.ax acc.F32_kernel.ay acc.F32_kernel.az
    acc.F32_kernel.pe

type pe_strategy = Readback_w | Gpu_reduction

(* 8-to-1 reduction shader: eight texture fetches summed into one output
   texel. *)
let reduce_fanin = 8

let reduce_block =
  let b = Isa.Block.Builder.create () in
  let loads =
    Isa.Block.Builder.push_n b Isa.Op.Load ~n:reduce_fanin ~deps:[]
  in
  let _ =
    List.fold_left
      (fun acc l ->
        match acc with
        | None -> Some l
        | Some prev ->
          Some (Isa.Block.Builder.push b Isa.Op.Fadd ~deps:[ prev; l ]))
      None loads
  in
  Isa.Block.Builder.finish b

(* One reduction level: sum [src] (length m) into ceil(m/8) partials with
   binary32 adds, charging a resolve + dispatch per pass. *)
let reduce_level m src = 
  let out_len = (m + reduce_fanin - 1) / reduce_fanin in
  let out = Array.make out_len 0.0 in
  for o = 0 to out_len - 1 do
    let acc = ref 0.0 in
    for k = 0 to reduce_fanin - 1 do
      let i = (o * reduce_fanin) + k in
      if i < m then acc := F32.add !acc src.(i)
    done;
    out.(o) <- !acc
  done;
  out

let run ?(steps = 10) ?(machine = Gpustream.Config.geforce_7900gtx)
    ?(pe_strategy = Readback_w) ?(force_path = Force_path.default) system =
  let s = Mdcore.System.copy system in
  let n = s.Mdcore.System.n in
  let m = Machine.create machine in
  let pl = Force_path.resolve force_path s in
  let positions = Machine.create_texture m ~name:"positions" ~texels:n in
  let accels = Machine.create_render_target m ~name:"accelerations" ~texels:n in
  let shader =
    Machine.compile m ~name:"md-accel" ~body:Kernels.gpu_candidate
      ~prologue:Kernels.gpu_fragment_prologue
  in
  (* Reduction-chain device objects, created once (as a real port would):
     one input texture and one 8x-smaller render target per level. *)
  let reduction_chain =
    match pe_strategy with
    | Readback_w -> []
    | Gpu_reduction ->
      let rec levels size acc =
        if size <= 1 then List.rev acc
        else begin
          let out_len = (size + reduce_fanin - 1) / reduce_fanin in
          let tex =
            Machine.create_texture m
              ~name:(Printf.sprintf "reduce-in-%d" size)
              ~texels:size
          in
          let rt =
            Machine.create_render_target m
              ~name:(Printf.sprintf "reduce-out-%d" out_len)
              ~texels:out_len
          in
          levels out_len ((tex, rt) :: acc)
        end
      in
      levels n []
  in
  let reduce_shader =
    match pe_strategy with
    | Readback_w -> None
    | Gpu_reduction ->
      Some
        (Machine.compile m ~name:"pe-reduce" ~body:reduce_block
           ~prologue:Kernels.gpu_fragment_prologue)
  in
  let hits_total = ref 0 in
  let invocations = ref 0 in
  let staging = Array.make n Vec4f.zero in
  (* The MD shader's fragments run on the default pool; their per-row
     hit counts are summed after each dispatch. *)
  let pool = Mdpar.get () in
  let row_hits = Array.make n 0 in
  (* Pairlist device state.  The packed neighbour-index texture and the
     per-row (start, count) descriptor texture live in VRAM and cross
     the PCIe bus only on rebuild steps — positions still upload every
     step, so [--counters] shows the list upload amortizing away. *)
  let idx_tex = ref None and row_tex = ref None in
  let rows = ref [||] and row_start = ref [||] in
  let entries = ref 0 in
  let list_upload_bytes = ref 0 in
  let body_iters = ref 0 in
  let pairs_total = ref 0 in
  let refresh_list_textures pl =
    if Mdcore.Pairlist.refresh pl || Option.is_none !idx_tex then begin
      (* The CPU runs the build's candidate-distance scan. *)
      let scanned = Mdcore.Pairlist.last_build_scanned pl in
      charge_host_block m Kernels.opteron_base ~iterations:scanned;
      pairs_total := !pairs_total + scanned;
      (match !idx_tex with Some t -> Machine.free_texture m t | None -> ());
      (match !row_tex with Some t -> Machine.free_texture m t | None -> ());
      rows := Mdcore.Pairlist.full_rows pl;
      entries := Mdcore.Pairlist.full_entry_count pl;
      row_start := Array.make n 0;
      let acc = ref 0 in
      Array.iteri
        (fun i row ->
          !row_start.(i) <- !acc;
          acc := !acc + Array.length row)
        !rows;
      (* Four indices per float4 texel. *)
      let idx_texels = max 1 ((!entries + 3) / 4) in
      let packed = Array.make idx_texels Vec4f.zero in
      let lane = Array.make 4 0.0 in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun k j ->
              let e = !row_start.(i) + k in
              lane.(e land 3) <- float_of_int j;
              if e land 3 = 3 || e = !entries - 1 then begin
                packed.(e lsr 2) <-
                  Vec4f.make lane.(0) lane.(1) lane.(2) lane.(3);
                Array.fill lane 0 4 0.0
              end)
            row)
        !rows;
      let it = Machine.create_texture m ~name:"neighbour-indices"
          ~texels:idx_texels in
      let rt = Machine.create_texture m ~name:"neighbour-rows" ~texels:n in
      Machine.upload m it packed;
      Machine.upload m rt
        (Array.init n (fun i ->
             Vec4f.make
               (float_of_int !row_start.(i))
               (float_of_int (Array.length !rows.(i)))
               0.0 0.0));
      idx_tex := Some it;
      row_tex := Some rt;
      list_upload_bytes := !list_upload_bytes + (16 * (idx_texels + n))
    end
  in
  let engine =
    Mdcore.Engine.make ~name:"gpu" ~compute:(fun sys ->
        incr invocations;
        let p = F32_kernel.of_system sys in
        (* CPU stages the position texture (double -> float4) through the
           system's reusable binary32 buffers; [Vec4f.make]'s rounding is
           idempotent on already-rounded singles, so the texels are
           bit-identical to staging straight from the doubles. *)
        let px, py, pz = Mdcore.System.stage_positions_f32 sys in
        for i = 0 to n - 1 do
          staging.(i) <- Vec4f.make px.{i} py.{i} pz.{i} 0.0
        done;
        charge_host_block m Kernels.ppe_stage_block ~iterations:n;
        Machine.upload m positions staging;
        (match pl with
        | None ->
          Machine.dispatch m shader ~inputs:[ positions ] ~target:accels
            ~loop_trip:n ~pool
            ~f:(fragment p (All n) [||] row_hits)
            ();
          body_iters := !body_iters + (n * n);
          pairs_total := !pairs_total + (n * n)
        | Some pl ->
          refresh_list_textures pl;
          (* Uniform loop trip: the fragments walk rows of differing
             length, but the hardware schedules warps at the mean. *)
          let lt = max 1 ((!entries + n - 1) / n) in
          Machine.dispatch m shader
            ~inputs:
              [ positions; Option.get !row_tex; Option.get !idx_tex ]
            ~target:accels ~loop_trip:lt ~pool
            ~f:(fragment p (Rows !rows) !row_start row_hits)
            ();
          body_iters := !body_iters + (n * lt);
          pairs_total := !pairs_total + !entries);
        hits_total := !hits_total + Array.fold_left ( + ) 0 row_hits;
        let result = Machine.readback m accels in
        for i = 0 to n - 1 do
          sys.Mdcore.System.acc_x.{i} <- result.(i).Vec4f.a;
          sys.Mdcore.System.acc_y.{i} <- result.(i).Vec4f.b;
          sys.Mdcore.System.acc_z.{i} <- result.(i).Vec4f.c
        done;
        charge_host_block m Kernels.ppe_stage_block ~iterations:n;
        match pe_strategy with
        | Readback_w ->
          (* CPU sums the PE lane in linear time — "sum them in linear
             time on the CPU, which is well suited to this scalar
             task". *)
          let pe2 = ref 0.0 in
          for i = 0 to n - 1 do
            pe2 := !pe2 +. result.(i).Vec4f.d
          done;
          0.5 *. !pe2
        | Gpu_reduction ->
          (* Multi-pass on-GPU reduction of the PE lane, consuming the
             device-resident output: each level resolves the previous
             target into a texture (ping-pong) and dispatches the 8-to-1
             sum; finally a single texel crosses the bus. *)
          let rec reduce chain prev_rt values =
            match chain with
            | [] -> values.(0)
            | (tex, rt) :: rest ->
              Machine.resolve_to_texture m prev_rt tex;
              let reduced = reduce_level (Array.length values) values in
              Machine.dispatch m (Option.get reduce_shader) ~inputs:[ tex ]
                ~target:rt
                ~f:(fun _ i -> Vec4f.make reduced.(i) 0.0 0.0 0.0)
                ();
              reduce rest rt reduced
          in
          let final =
            reduce reduction_chain accels (Array.map Vec4f.w result)
          in
          (* one-texel readback of the final sum *)
          Machine.cpu_charge m
            ~seconds:
              (Sim_util.Units.transfer_seconds ~bytes:16
                 ~bandwidth:machine.Gpustream.Config.readback_bandwidth
                 ~latency:machine.Gpustream.Config.transfer_latency);
          F32.mul 0.5 final)
  in
  let records = Mdcore.Verlet.run s ~engine ~steps ~max_step_retries:(Mdfault.step_retries ()) () in
  charge_host_block m Kernels.opteron_integration ~iterations:(steps * n);
  let ledger = Machine.ledger m in
  let setup = Ledger.get ledger Setup in
  (* Port-level virtual PMU summary (feeds derived gpu/mflops and
     gpu/pcie_bandwidth): the candidate block runs n times per fragment,
     n fragments per invocation. *)
  if Mdprof.enabled () then begin
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    let flops = !body_iters * Isa.Block.flops Kernels.gpu_candidate in
    Mdprof.add_f (c ~unit_:"s" "gpu/virtual_seconds") (Machine.time m -. setup);
    Mdprof.add (c ~unit_:"flops" "gpu/flops") flops;
    if Option.is_some pl then
      Mdprof.add
        (c ~unit_:"bytes" "gpu/pairlist_upload_bytes")
        !list_upload_bytes
  end;
  { Run_result.device =
      (if Option.is_some pl then "NVIDIA GPU (7900GTX class, pairlist)"
       else "NVIDIA GPU (7900GTX class)");
    n_atoms = n;
    steps;
    (* Fig. 7 excludes the one-time startup: "it occurs only once [and]
       will be quickly amortized ... so it is not included". *)
    seconds = Machine.time m -. setup;
    records;
    breakdown =
      List.map
        (fun cat -> (Ledger.category_name cat, Ledger.get ledger cat))
        Ledger.all_categories;
    pairs_evaluated = !pairs_total;
    interactions = !hits_total;
    final_system = Some s }

let setup_seconds result = Run_result.breakdown_get result "setup"
