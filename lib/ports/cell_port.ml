module F32 = Sim_util.F32
module Machine = Cellbe.Machine
module Ledger = Cellbe.Ledger

type launch = Respawn | Persistent

type precision = Single | Double

type config = {
  variant : Cell_variant.t;
  n_spes : int;
  launch : launch;
}

let default_config =
  { variant = Cell_variant.Simd_acceleration;
    n_spes = 8;
    launch = Persistent }

(* ------------------------------------------------------------------ *)
(* Single-precision physics                                           *)
(* ------------------------------------------------------------------ *)

(* Each domain's row accumulator for the pooled row loop. *)
let domain_acc = Domain.DLS.new_key F32_kernel.acc

(* Full binary32 force evaluation: stage positions to binary32, run
   every row through the shared kernel loop, write accelerations back.
   The arithmetic every SPE variant performs is the same (the SIMD
   rewrites change scheduling, not values).  [row_hits] (length n)
   receives per-row interaction counts.

   The rows run as one region on the default pool, as the SPEs split
   them: row i writes only its own acceleration, hit and PE slots, and
   the PE slots ([pe_rows], length at least n, owned by the caller for
   the whole run) are then folded in row order — the serial loop's
   additions in the serial order, so the result is bitwise the same at
   any pool size. *)
let f32_compute_over ~pe_rows partners ~row_hits (s : Mdcore.System.t) =
  let p = F32_kernel.of_system s in
  (* Binary32 staging through the system's reusable buffers: a Float32
     bigarray store rounds to nearest single exactly like [F32.round],
     so the staged values are bit-identical to the old per-call
     [Array.map F32.round] copies — without the per-evaluation
     allocation. *)
  let px, py, pz = Mdcore.System.stage_positions_f32 s in
  let src = F32_kernel.Staged (px, py, pz) in
  let { Mdcore.System.n; acc_x; acc_y; acc_z; _ } = s in
  Mdpar.parallel_for (Mdpar.get ()) ~lo:0 ~hi:(n - 1) (fun i ->
      let acc = Domain.DLS.get domain_acc in
      row_hits.(i) <- F32_kernel.gather p acc src partners i;
      acc_x.{i} <- acc.F32_kernel.ax;
      acc_y.{i} <- acc.F32_kernel.ay;
      acc_z.{i} <- acc.F32_kernel.az;
      pe_rows.(i) <- acc.F32_kernel.pe);
  let pe2 = ref 0.0 in
  for i = 0 to n - 1 do
    pe2 := !pe2 +. pe_rows.(i)
  done;
  0.5 *. !pe2

let apply_f32_engine _system =
  let row_hits = ref [||] and pe_rows = ref [||] in
  Mdcore.Engine.make ~name:"cell-f32" ~compute:(fun s ->
      let n = s.Mdcore.System.n in
      if Array.length !row_hits <> n then begin
        row_hits := Array.make n 0;
        pe_rows := Array.make n 0.0
      end;
      f32_compute_over ~pe_rows:!pe_rows (F32_kernel.All n)
        ~row_hits:!row_hits s)

(* ------------------------------------------------------------------ *)
(* Profiles                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-invocation pairlist tile data the timing replay charges from:
   which rows carried how many list entries, and whether this force
   evaluation paid a rebuild scan. *)
type invocation_tile = {
  row_entries : int array;  (* full-row entry count per atom *)
  tile_entries : int;       (* sum of row_entries *)
  rebuilt : bool;
  scanned : int;            (* candidate pairs examined; 0 unless rebuilt *)
}

type profile = {
  n : int;
  steps : int;
  precision : precision;
  records : Mdcore.Verlet.step_record list;
  row_hits : int array array; (* one entry per force evaluation *)
  plan : invocation_tile array option;  (* Some iff run with the pairlist *)
  final : Mdcore.System.t;    (* working copy after the last step *)
}

let profile_run ?(steps = 10) ?(precision = Single)
    ?(force_path = Force_path.default) system =
  let s = Mdcore.System.copy system in
  let n = s.Mdcore.System.n in
  let collected = ref [] in
  let tiles = ref [] in
  let pl = Force_path.resolve force_path s in
  let pe_rows = Array.make n 0.0 in
  (* Both precisions gather over the same partners: every atom, or the
     list's full rows.  Binary32 rows run on the pool; binary64 is the
     shared double-precision gather. *)
  let compute row_hits sys =
    let partners =
      match pl with
      | None -> F32_kernel.All n
      | Some pl ->
        let rebuilt = Mdcore.Pairlist.refresh pl in
        let scanned =
          if rebuilt then Mdcore.Pairlist.last_build_scanned pl else 0
        in
        let rows = Mdcore.Pairlist.full_rows pl in
        let row_entries = Array.map Array.length rows in
        tiles :=
          { row_entries;
            tile_entries = Array.fold_left ( + ) 0 row_entries;
            rebuilt;
            scanned }
          :: !tiles;
        F32_kernel.Rows rows
    in
    match precision with
    | Single -> f32_compute_over ~pe_rows partners ~row_hits sys
    | Double -> fst (Mdcore.Pairlist.gather sys partners ~row_hits)
  in
  let engine =
    Mdcore.Engine.make ~name:"cell" ~compute:(fun sys ->
        let row_hits = Array.make n 0 in
        let pe = compute row_hits sys in
        collected := row_hits :: !collected;
        pe)
  in
  let records = Mdcore.Verlet.run s ~engine ~steps ~max_step_retries:(Mdfault.step_retries ()) () in
  { n; steps; precision; records;
    row_hits = Array.of_list (List.rev !collected);
    plan =
      (match pl with
      | None -> None
      | Some _ -> Some (Array.of_list (List.rev !tiles)));
    final = s }

let profile_precision p = p.precision

let profile_records p = p.records

let profile_hits p =
  Array.fold_left
    (fun acc rows -> acc + Array.fold_left ( + ) 0 rows)
    0 p.row_hits

(* ------------------------------------------------------------------ *)
(* Machine-time replay                                                *)
(* ------------------------------------------------------------------ *)

(* Rows [slice_lo..slice_hi) handled by each SPE: contiguous, balanced. *)
let slice ~n ~spes k = (k * n / spes, (k + 1) * n / spes)

let slice_hits row_hits ~lo ~hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + row_hits.(i)
  done;
  !acc

(* Stage the j-atoms in chunks that respect the 256 KB local store:
   8192 atoms x 3 coordinates x 4 bytes = 96 KB per chunk. *)
let default_j_chunk = 8192

let spe_kernel ~j_chunk ~(cfg : config) ~profile ~stage ~invocation ctx =
  let n = profile.n in
  (* Doubles occupy two binary32 slots in every size computation. *)
  let word = match profile.precision with Single -> 1 | Double -> 2 in
  let lo, hi = slice ~n ~spes:cfg.n_spes (Machine.spe_id ctx) in
  let rows = hi - lo in
  if rows > 0 then begin
    let ls = Machine.local_store ctx in
    let acc_buf =
      Cellbe.Local_store.alloc ls ~name:"acc" ~floats:(3 * rows * word)
    in
    let pe_buf = Cellbe.Local_store.alloc ls ~name:"pe" ~floats:(4 * word) in
    let chunk_len = min (j_chunk / word) n in
    (* One reusable staging buffer; successive chunks overwrite it, as a
       double-buffered SPE kernel reuses its tile. *)
    let chunk =
      Cellbe.Local_store.alloc ls ~name:"pos-chunk"
        ~floats:(3 * chunk_len * word)
    in
    (* Whole-position-array staging in LS-sized tiles (three coordinate
       arrays per chunk) — the brute kernel's staging, also reused by
       the pairlist kernel on the dense side of its crossover. *)
    let rec stage_chunks pos =
      if pos < n then begin
        let len = min chunk_len (n - pos) in
        Machine.dma_get ctx ~src:stage ~src_pos:pos ~dst:chunk ~dst_pos:0
          ~len:(len * word);
        Machine.dma_get ctx ~src:stage ~src_pos:pos ~dst:chunk
          ~dst_pos:(len * word) ~len:(len * word);
        Machine.dma_get ctx ~src:stage ~src_pos:pos ~dst:chunk
          ~dst_pos:(2 * len * word) ~len:(len * word);
        stage_chunks (pos + len)
      end
    in
    let base, hit_block =
      match profile.precision with
      | Single -> (Kernels.spe_base cfg.variant, Kernels.spe_hit cfg.variant)
      | Double -> (Kernels.spe_base_dp, Kernels.spe_hit_dp)
    in
    let base_iterations =
      match profile.plan with
      | None ->
        (* Brute kernel: stage the whole position arrays in tiles. *)
        stage_chunks 0;
        rows * (n - 1)
      | Some plan ->
        (* Pairlist kernel.  The neighbour-row tile — the packed 4-byte
           index list for rows [lo, hi) — lives in main memory between
           force evaluations.  On rebuild steps each SPE scans its own
           share of the candidate pairs against the whole staged
           position arrays, builds its tile in local store, and DMAs it
           back out; the subsequent per-pair loop reads the
           freshly-built tile in place.  On other steps the SPE fetches
           its stored tile instead.  Coordinate staging is adaptive:
           when the tile is sparser than the box (fewer entries than
           atoms) the three coordinate streams are gathered per entry;
           at liquid densities a row holds ~4πr³ρ/3 ≈ 80 neighbours, so
           entries ≥ n and streaming the whole arrays (exactly the
           brute staging, 3n floats) is the cheaper side of the
           crossover.  Either way the compute loop shrinks from
           rows·(n-1) candidates to the stored entries. *)
        let tile = plan.(invocation) in
        let entries = slice_hits tile.row_entries ~lo ~hi in
        let idx_buf =
          Cellbe.Local_store.alloc ls ~name:"idx-chunk" ~floats:chunk_len
        in
        let rec move_indices dma remaining =
          if remaining > 0 then begin
            let len = min chunk_len remaining in
            dma len;
            move_indices dma (remaining - len)
          end
        in
        let fetch_indices () =
          move_indices
            (fun len ->
              Machine.dma_get ctx ~src:stage ~src_pos:0 ~dst:idx_buf
                ~dst_pos:0 ~len)
            entries
        in
        let writeback_indices () =
          move_indices
            (fun len ->
              Machine.dma_put ctx ~src:idx_buf ~src_pos:0 ~dst:stage
                ~dst_pos:0 ~len)
            entries
        in
        if tile.rebuilt then begin
          (* The candidate scan needs every position, so the rebuild
             always stages the whole arrays.  The scan itself is the
             same candidate block as the force loop's base (distance +
             cutoff test, no force math), run over this SPE's
             proportional share of the scanned pairs. *)
          stage_chunks 0;
          Machine.charge_block ctx base
            ~iterations:(tile.scanned * rows / n)
            ~overlap:Kernels.spe_overlap;
          writeback_indices ()
        end
        else begin
          fetch_indices ();
          if entries < n then begin
            let rec stage_gathered remaining =
              if remaining > 0 then begin
                let len = min chunk_len remaining in
                (* gathered x/y/z streams for these entries *)
                Machine.dma_get ctx ~src:stage ~src_pos:0 ~dst:chunk
                  ~dst_pos:0 ~len:(len * word);
                Machine.dma_get ctx ~src:stage ~src_pos:0 ~dst:chunk
                  ~dst_pos:(len * word) ~len:(len * word);
                Machine.dma_get ctx ~src:stage ~src_pos:0 ~dst:chunk
                  ~dst_pos:(2 * len * word) ~len:(len * word);
                stage_gathered (remaining - len)
              end
            in
            stage_gathered entries
          end
          else stage_chunks 0
        end;
        entries
    in
    let hits = slice_hits profile.row_hits.(invocation) ~lo ~hi in
    Machine.charge_block ctx base ~iterations:base_iterations
      ~overlap:Kernels.spe_overlap;
    Machine.charge_block ctx hit_block ~iterations:hits
      ~overlap:Kernels.spe_overlap;
    Machine.charge_block ctx Kernels.spe_row_overhead ~iterations:rows
      ~overlap:Kernels.spe_overlap;
    Machine.dma_put ctx ~src:acc_buf ~src_pos:0 ~dst:stage ~dst_pos:0
      ~len:(min (3 * rows * word) n);
    Machine.dma_put ctx ~src:pe_buf ~src_pos:0 ~dst:stage ~dst_pos:0
      ~len:(4 * word)
  end

let breakdown_of_ledger ledger =
  List.map
    (fun cat -> (Ledger.category_name cat, Ledger.get ledger cat))
    Ledger.all_categories

(* Port-level virtual PMU summary: the SPE kernels' static FLOP counts
   scaled by the replayed iteration totals, plus the end-to-end virtual
   time (feeds the derived cell/mflops). *)
(* Total per-pair loop iterations across the run: all candidate pairs
   for the brute kernel, the stored list entries for the pairlist one. *)
let pair_iterations profile =
  let n = profile.n in
  let invocations = Array.length profile.row_hits in
  match profile.plan with
  | None -> invocations * n * (n - 1)
  | Some plan ->
    Array.fold_left (fun acc t -> acc + t.tile_entries) 0 plan

let rebuild_scanned profile =
  match profile.plan with
  | None -> 0
  | Some plan -> Array.fold_left (fun acc t -> acc + t.scanned) 0 plan

let publish_prof ~(cfg : config) ~profile ~seconds =
  if Mdprof.enabled () then begin
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    let n = profile.n in
    let invocations = Array.length profile.row_hits in
    let base, hit_block =
      match profile.precision with
      | Single -> (Kernels.spe_base cfg.variant, Kernels.spe_hit cfg.variant)
      | Double -> (Kernels.spe_base_dp, Kernels.spe_hit_dp)
    in
    let flops =
      (pair_iterations profile * Isa.Block.flops base)
      + (profile_hits profile * Isa.Block.flops hit_block)
      + (invocations * n * Isa.Block.flops Kernels.spe_row_overhead)
    in
    Mdprof.add_f (c ~unit_:"s" "cell/virtual_seconds") seconds;
    Mdprof.add (c ~unit_:"flops" "cell/flops") flops;
    match profile.plan with
    | None -> ()
    | Some plan ->
      Mdprof.add
        (c ~unit_:"pairs" "cell/pairlist_rebuild_pairs")
        (rebuild_scanned profile);
      (* 4-byte neighbour-index DMA traffic: tiles written back on
         rebuild steps, fetched into local store otherwise. *)
      Mdprof.add
        (c ~unit_:"bytes" "cell/pairlist_index_dma_bytes")
        (4 * Array.fold_left (fun acc t -> acc + t.tile_entries) 0 plan)
  end

let time_with ?(j_chunk = default_j_chunk) profile cfg =
  if j_chunk <= 0 then invalid_arg "Cell_port.time_with: j_chunk";
  if cfg.n_spes < 1 || cfg.n_spes > Cellbe.Config.default.Cellbe.Config.n_spes
  then invalid_arg "Cell_port.time_with: n_spes out of range";
  let machine = Machine.create Cellbe.Config.default in
  let n = profile.n in
  (* Scratch main-memory array standing in for the staged float data; DMA
     blits need at least 3 * j_chunk float-slots. *)
  let stage = Array.make (max (2 * n) (3 * j_chunk)) 0.0 in
  let mode =
    match cfg.launch with
    | Respawn -> Machine.Respawn
    | Persistent -> Machine.Persistent
  in
  let invocations = Array.length profile.row_hits in
  (* Offload-level recovery for the timing replay: an offload aborted by
     an unrecovered device fault is re-issued whole (the PPE re-stages
     and relaunches), like the checkpointed step re-execution on the
     physics side.  Partial charges from the failed attempt stay on the
     virtual clock — failed work still costs time. *)
  let offload_retries = Mdfault.step_retries () in
  let offload_checkpointed invocation =
    let rec go attempt =
      match
        Machine.offload machine ~spes:cfg.n_spes ~mode
          (spe_kernel ~j_chunk ~cfg ~profile ~stage ~invocation)
      with
      | () -> if attempt > 0 then Mdfault.note_recovered_step ()
      | exception Mdfault.Unrecovered _ when attempt < offload_retries ->
        go (attempt + 1)
    in
    go 0
  in
  for invocation = 0 to invocations - 1 do
    (* PPE stages the positions to binary32. *)
    Machine.ppe_block machine Kernels.ppe_stage_block ~iterations:n;
    (* Rebuild scans run on the SPEs (each scans its candidate share and
       writes its index tile back) — charged inside spe_kernel, not
       here: the in-order PPE serializing an O(N²) scan would cost more
       than the list saves. *)
    offload_checkpointed invocation;
    (* PPE converts accelerations back and accumulates the PE partials. *)
    Machine.ppe_block machine Kernels.ppe_stage_block ~iterations:n;
    (* Integration for every step but the initial force evaluation. *)
    if invocation > 0 then
      Machine.ppe_block machine Kernels.opteron_integration ~iterations:n
  done;
  let ledger = Machine.ledger machine in
  publish_prof ~cfg ~profile ~seconds:(Machine.time machine);
  { Run_result.device =
      Printf.sprintf "Cell (%d SPE%s, %s, %s%s)" cfg.n_spes
        (if cfg.n_spes = 1 then "" else "s")
        (match cfg.launch with
        | Respawn -> "respawn"
        | Persistent -> "persistent")
        (match profile.precision with
        | Single -> Cell_variant.name cfg.variant
        | Double -> "double precision")
        (if Option.is_some profile.plan then ", pairlist" else "");
    n_atoms = n;
    steps = profile.steps;
    seconds = Machine.time machine;
    records = profile.records;
    breakdown = breakdown_of_ledger ledger;
    pairs_evaluated = pair_iterations profile + rebuild_scanned profile;
    interactions = profile_hits profile;
    final_system = Some profile.final }

let run ?steps ?(config = default_config) ?force_path system =
  time_with (profile_run ?steps ?force_path system) config

let time_ppe_only profile =
  let m = Machine.create Cellbe.Config.default in
  let n = profile.n in
  let invocations = Array.length profile.row_hits in
  for invocation = 0 to invocations - 1 do
    let hits = slice_hits profile.row_hits.(invocation) ~lo:0 ~hi:n in
    Machine.ppe_block m Kernels.opteron_base ~iterations:(n * (n - 1));
    Machine.ppe_block m Kernels.opteron_hit ~iterations:hits;
    Machine.ppe_block m Kernels.opteron_row_overhead ~iterations:n;
    if invocation > 0 then
      Machine.ppe_block m Kernels.opteron_integration ~iterations:n
  done;
  { Run_result.device = "Cell (PPE only)";
    n_atoms = n;
    steps = profile.steps;
    seconds = Machine.time m;
    records = profile.records;
    breakdown = breakdown_of_ledger (Machine.ledger m);
    pairs_evaluated = invocations * n * (n - 1);
    interactions = profile_hits profile;
    final_system = Some profile.final }

let run_ppe_only ?steps system =
  (* The PPE-only ladder rung is a paper figure: keep it on the as-written
     N² kernel (its timing replay charges the full sweep). *)
  time_ppe_only (profile_run ?steps ~force_path:Force_path.brute system)

let accel_seconds result =
  Run_result.breakdown_get result "compute"
  +. Run_result.breakdown_get result "dma"

let launch_overhead_seconds result =
  Run_result.breakdown_get result "spawn"
  +. Run_result.breakdown_get result "signal"
