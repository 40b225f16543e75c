type config = {
  l1_line_bytes : int;
  l1_sets : int;
  l1_ways : int;
  l1_hit_cycles : int;
  l2_line_bytes : int;
  l2_sets : int;
  l2_ways : int;
  l2_hit_cycles : int;
  dram_cycles : int;
}

(* Per-level virtual PMU counters (see DESIGN.md, "Profiling").
   Registered at creation under the current Mdobs scope; None when
   profiling is disabled so the hot access path stays branch-plus-load
   cheap. *)
type prof_set = {
  p_l1_hits : Mdprof.counter;
  p_l1_misses : Mdprof.counter;
  p_l2_hits : Mdprof.counter;
  p_l2_misses : Mdprof.counter;
  p_dram_accesses : Mdprof.counter;
}

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  mutable total_cycles : int;
  prof : prof_set option;
  ft_bitflip : Mdfault.stream;  (* ECC-scrubbed payload flip -> refetch *)
}

(* AMD K8: 64 KB L1D, 2-way, 64 B lines => 512 sets.
   1 MB L2, 16-way, 64 B lines => 1024 sets. *)
let opteron_2_2ghz =
  { l1_line_bytes = 64; l1_sets = 512; l1_ways = 2; l1_hit_cycles = 3;
    l2_line_bytes = 64; l2_sets = 1024; l2_ways = 16; l2_hit_cycles = 12;
    dram_cycles = 200 }

let make_prof () =
  if not (Mdprof.enabled ()) then None
  else
    let c name = Mdprof.counter ~clock:Mdprof.Virtual name in
    Some
      {
        p_l1_hits = c "mem/l1_hits";
        p_l1_misses = c "mem/l1_misses";
        p_l2_hits = c "mem/l2_hits";
        p_l2_misses = c "mem/l2_misses";
        p_dram_accesses = c "mem/dram_accesses";
      }

let create cfg =
  { cfg;
    l1 = Cache.create ~line_bytes:cfg.l1_line_bytes ~sets:cfg.l1_sets
           ~ways:cfg.l1_ways;
    l2 = Cache.create ~line_bytes:cfg.l2_line_bytes ~sets:cfg.l2_sets
           ~ways:cfg.l2_ways;
    total_cycles = 0;
    prof = make_prof ();
    ft_bitflip = Mdfault.stream Mdfault.Mem_bitflip "mem" }

let access t addr =
  let cost =
    match Cache.access t.l1 addr with
    | Cache.Hit ->
      (match t.prof with
      | Some p -> Mdprof.incr p.p_l1_hits
      | None -> ());
      t.cfg.l1_hit_cycles
    | Cache.Miss -> (
      match Cache.access t.l2 addr with
      | Cache.Hit ->
        (match t.prof with
        | Some p ->
            Mdprof.incr p.p_l1_misses;
            Mdprof.incr p.p_l2_hits
        | None -> ());
        t.cfg.l1_hit_cycles + t.cfg.l2_hit_cycles
      | Cache.Miss ->
        (match t.prof with
        | Some p ->
            Mdprof.incr p.p_l1_misses;
            Mdprof.incr p.p_l2_misses;
            Mdprof.incr p.p_dram_accesses
        | None -> ());
        t.cfg.l1_hit_cycles + t.cfg.l2_hit_cycles + t.cfg.dram_cycles)
  in
  (* An ECC scrub catching a flipped payload bit re-fetches the line
     from DRAM; each faulted attempt costs one more DRAM roundtrip. *)
  let cost =
    if Mdfault.inert t.ft_bitflip then cost
    else
      let failures, _backoff =
        Mdfault.attempt t.ft_bitflip ~detail:(fun () ->
            Printf.sprintf "ecc scrub at addr %d" addr)
      in
      cost + (failures * t.cfg.dram_cycles)
  in
  t.total_cycles <- t.total_cycles + cost;
  cost

let accesses t = Cache.accesses t.l1
let total_cycles t = t.total_cycles

let average_cycles t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.total_cycles /. float_of_int n
