module Hierarchy = Memsim.Hierarchy
module Layout = Memsim.Layout
module Pipe = Isa.Opteron_pipe

type config = {
  clock : Sim_util.Units.clock;
  hierarchy : Memsim.Hierarchy.config;
  sample_rows : int;
}

let default_config =
  { clock = Sim_util.Units.clock ~hz:2.2e9 ~label:"Opteron 2.2 GHz";
    hierarchy = Hierarchy.opteron_2_2ghz;
    sample_rows = 4 }

(* Address-space image of the nine SoA arrays, as a C allocator would lay
   them out. *)
type mem_model = {
  hier : Hierarchy.t;
  tlb : Memsim.Tlb.t;
  l1_hit : int;
  n : int;
  sample_rows : int;
  pos_bases : int array;  (* x, y, z *)
  all_bases : int array;  (* all nine arrays, for the integration sweep *)
}

let make_mem_model cfg ~n =
  let layout = Layout.create () in
  let all_bases = Array.init 9 (fun _ -> Layout.alloc_float_array layout ~n) in
  { hier = Hierarchy.create cfg.hierarchy;
    tlb = Memsim.Tlb.create () (* K8 L1 DTLB: 32 x 4 KB *);
    l1_hit = cfg.hierarchy.Hierarchy.l1_hit_cycles;
    n;
    sample_rows = max 1 cfg.sample_rows;
    pos_bases = Array.sub all_bases 0 3;
    all_bases }

(* One i-row of the force loop touches every element of the three position
   arrays in order.  Returns the stall cycles in excess of an L1 hit. *)
let replay_row mm =
  let excess = ref 0 in
  for j = 0 to mm.n - 1 do
    for b = 0 to Array.length mm.pos_bases - 1 do
      let addr = mm.pos_bases.(b) + (8 * j) in
      excess :=
        !excess + Hierarchy.access mm.hier addr - mm.l1_hit
        + Memsim.Tlb.access mm.tlb addr
    done
  done;
  !excess

(* Average memory-excess cycles per candidate pair for the current cache
   state: replay [sample_rows] full j-sweeps and divide.  The sweep is the
   same for every i, so the sample is exact up to LRU warm-up, which the
   persistent hierarchy state amortizes away. *)
let pair_excess_cycles mm =
  let total = ref 0 in
  for _ = 1 to mm.sample_rows do
    total := !total + replay_row mm
  done;
  float_of_int !total /. float_of_int (mm.sample_rows * mm.n)

(* The integration step walks all nine arrays linearly (read + write). *)
let integration_excess_cycles mm =
  let excess = ref 0 in
  for b = 0 to Array.length mm.all_bases - 1 do
    for i = 0 to mm.n - 1 do
      let addr = mm.all_bases.(b) + (8 * i) in
      excess :=
        !excess + Hierarchy.access mm.hier addr - mm.l1_hit
        + Memsim.Tlb.access mm.tlb addr
    done
  done;
  float_of_int !excess

let per_iter block =
  Pipe.per_iteration_cycles block ~overlap:Kernels.opteron_overlap

(* Publish the run's virtual PMU counters: static per-block op counts
   scaled by the dynamic iteration counts, plus the bytes the memory
   model touches (3 position doubles per candidate pair; all nine SoA
   arrays per atom per integration step). *)
let publish_prof ~pairs ~hits ~steps ~n ~seconds =
  if Mdprof.enabled () then begin
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    let weighted =
      [ (Kernels.opteron_base, pairs);
        (Kernels.opteron_hit, hits);
        (Kernels.opteron_row_overhead, steps * n);
        (Kernels.opteron_integration, steps * n) ]
    in
    let total f =
      List.fold_left (fun acc (b, k) -> acc + (f b * k)) 0 weighted
    in
    Mdprof.add_f (c ~unit_:"s" "opteron/virtual_seconds") seconds;
    Mdprof.add (c ~unit_:"flops" "opteron/flops") (total Isa.Block.flops);
    Mdprof.add
      (c ~unit_:"bytes" "opteron/mem_bytes")
      ((24 * pairs) + (72 * n * steps));
    List.iter
      (fun op ->
        let k = total (fun b -> Isa.Block.count b op) in
        if k > 0 then
          Mdprof.add (c ~unit_:"ops" ("opteron/ops/" ^ Isa.Op.to_string op)) k)
      Isa.Op.all
  end

let run_brute ?(steps = 10) ?(config = default_config) system =
  let s = Mdcore.System.copy system in
  let n = s.Mdcore.System.n in
  let mm = make_mem_model config ~n in
  let base_cyc = per_iter Kernels.opteron_base in
  let hit_cyc = per_iter Kernels.opteron_hit in
  let row_cyc = per_iter Kernels.opteron_row_overhead in
  let integ_cyc = per_iter Kernels.opteron_integration in
  let compute_cycles = ref 0.0 in
  let memory_cycles = ref 0.0 in
  let pairs_total = ref 0 and hits_total = ref 0 in
  let pairs_per_step = n * (n - 1) in
  let engine =
    Mdcore.Engine.make ~name:"opteron" ~compute:(fun sys ->
        let pe, hits = Mdcore.Forces.compute_gather_stats sys in
        pairs_total := !pairs_total + pairs_per_step;
        hits_total := !hits_total + hits;
        compute_cycles :=
          !compute_cycles
          +. (float_of_int pairs_per_step *. base_cyc)
          +. (float_of_int hits *. hit_cyc)
          +. (float_of_int n *. row_cyc);
        memory_cycles :=
          !memory_cycles +. (pair_excess_cycles mm *. float_of_int pairs_per_step);
        pe)
  in
  let records = Mdcore.Verlet.run s ~engine ~steps ~max_step_retries:(Mdfault.step_retries ()) () in
  (* Integration work: once per step, outside the force engine. *)
  compute_cycles :=
    !compute_cycles +. (float_of_int (steps * n) *. integ_cyc);
  for _ = 1 to steps do
    memory_cycles := !memory_cycles +. integration_excess_cycles mm
  done;
  let to_s c = Sim_util.Units.seconds_of_cycles config.clock c in
  publish_prof ~pairs:!pairs_total ~hits:!hits_total ~steps ~n
    ~seconds:(to_s (!compute_cycles +. !memory_cycles));
  { Run_result.device = "Opteron 2.2 GHz";
    n_atoms = n;
    steps;
    seconds = to_s (!compute_cycles +. !memory_cycles);
    records;
    breakdown =
      [ ("compute", to_s !compute_cycles); ("memory", to_s !memory_cycles) ];
    pairs_evaluated = !pairs_total;
    interactions = !hits_total;
    final_system = Some s }

let run_with_pairlist ?(steps = 10) ?(config = default_config) ?skin system =
  let s = Mdcore.System.copy system in
  let n = s.Mdcore.System.n in
  let mm = make_mem_model config ~n in
  let pl = Mdcore.Pairlist.create ?skin s in
  let pl_engine = Mdcore.Pairlist.engine pl in
  let base_cyc = per_iter Kernels.opteron_base in
  let hit_cyc = per_iter Kernels.opteron_hit in
  let row_cyc = per_iter Kernels.opteron_row_overhead in
  let integ_cyc = per_iter Kernels.opteron_integration in
  let compute_cycles = ref 0.0 and memory_cycles = ref 0.0 in
  let pairs_total = ref 0 and hits_total = ref 0 in
  let rebuild_pairs = ref 0 in
  let rebuilds_seen = ref 0 in
  let engine =
    Mdcore.Engine.make ~name:"opteron-pairlist" ~compute:(fun sys ->
        let pe = pl_engine.Mdcore.Engine.compute sys in
        let entries = Mdcore.Pairlist.neighbour_count pl in
        let hits = Mdcore.Pairlist.last_interaction_count pl in
        let excess = pair_excess_cycles mm in
        (* Rebuild steps pay the build's candidate-distance scan —
           n(n-1)/2 for brute builds, the 27-cell stencil population
           when the cell-binned build is active. *)
        if Mdcore.Pairlist.rebuild_count pl > !rebuilds_seen then begin
          rebuilds_seen := Mdcore.Pairlist.rebuild_count pl;
          let scan_pairs = Mdcore.Pairlist.last_build_scanned pl in
          compute_cycles :=
            !compute_cycles +. (float_of_int scan_pairs *. base_cyc);
          memory_cycles :=
            !memory_cycles +. (excess *. float_of_int scan_pairs);
          pairs_total := !pairs_total + scan_pairs;
          rebuild_pairs := !rebuild_pairs + scan_pairs
        end;
        pairs_total := !pairs_total + entries;
        hits_total := !hits_total + hits;
        compute_cycles :=
          !compute_cycles
          +. (float_of_int entries *. base_cyc)
          +. (float_of_int hits *. hit_cyc)
          +. (float_of_int n *. row_cyc);
        memory_cycles := !memory_cycles +. (excess *. float_of_int entries);
        pe)
  in
  let records = Mdcore.Verlet.run s ~engine ~steps ~max_step_retries:(Mdfault.step_retries ()) () in
  compute_cycles := !compute_cycles +. (float_of_int (steps * n) *. integ_cyc);
  for _ = 1 to steps do
    memory_cycles := !memory_cycles +. integration_excess_cycles mm
  done;
  let to_s c = Sim_util.Units.seconds_of_cycles config.clock c in
  publish_prof ~pairs:!pairs_total ~hits:!hits_total ~steps ~n
    ~seconds:(to_s (!compute_cycles +. !memory_cycles));
  if Mdprof.enabled () then
    Mdprof.add
      (Mdprof.counter ~unit_:"pairs" ~clock:Mdprof.Virtual
         "opteron/pairlist_rebuild_pairs")
      !rebuild_pairs;
  { Run_result.device = "Opteron 2.2 GHz (pairlist)";
    n_atoms = n;
    steps;
    seconds = to_s (!compute_cycles +. !memory_cycles);
    records;
    breakdown =
      [ ("compute", to_s !compute_cycles); ("memory", to_s !memory_cycles) ];
    pairs_evaluated = !pairs_total;
    interactions = !hits_total;
    final_system = Some s }

let run ?steps ?config ?(force_path = Force_path.default) system =
  match Force_path.resolve force_path system with
  | None -> run_brute ?steps ?config system
  | Some skin -> run_with_pairlist ?steps ?config ~skin system

(* Forces the list engine regardless of box admissibility (raises on a
   box below the min-image bound) — the harness speedup ablation. *)
let run_pairlist ?steps ?config ?skin system =
  run_with_pairlist ?steps ?config ?skin system

let seconds_for ?steps ?config ?force_path ~n () =
  let system = Mdcore.Init.build ~n () in
  (run ?steps ?config ?force_path system).Run_result.seconds

let memory_excess_cycles_per_pair ?(config = default_config) ~n () =
  let mm = make_mem_model config ~n in
  (* Warm sweep, then measure. *)
  let _ = replay_row mm in
  pair_excess_cycles mm
