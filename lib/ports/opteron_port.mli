(** The reference implementation: the paper's 2.2 GHz Opteron run.

    Physics is double precision; virtual time combines

    - pipeline cycles: per-pair base + per-interaction hit blocks from
      {!Kernels} through {!Isa.Opteron_pipe}, plus per-atom row and
      integration overheads, and
    - memory-hierarchy stalls: the inner loop's address stream replayed
      through {!Memsim.Hierarchy} (a 64 KB L1 / 1 MB L2 Opteron), charging
      the cycles in excess of an L1 hit.  Because the j-sweep is identical
      for every i, the sweep is replayed for four rows per step and
      scaled — exact for this access pattern, and cheap.

    This cache term is what bends Fig. 9's Opteron curve above the pure
    N² line.  Once the three position arrays outgrow the 64 KB L1 (about
    2800 atoms) the capacity stall is a few cycles per pair.  The
    4096-atom point is set conflicts: the SoA arrays sit back to back at
    64-byte alignment, so at 4095–4096 atoms each position array spans
    32 KB, exactly one way of the 2-way L1, x[j], y[j] and z[j] map to
    one set, and every access misses L1 (36 cycles per pair; see
    {!memory_excess_cycles_per_pair}).

    One {!run} serves both force paths: the paper's per-step gather over
    every pair ({!Mdcore.Pairlist.gather} with [All]), or the Verlet
    list's half-list Newton-3 traversal ({!Mdcore.Pairlist.engine}). *)

val run : ?steps:int -> ?force_path:Force_path.t -> Mdcore.System.t ->
  Run_result.t
(** Simulate [steps] (default 10) velocity-Verlet steps on a copy of the
    system.  The breakdown separates ["compute"] and ["memory"] seconds.

    [force_path] defaults to {!Force_path.default}: the skin-based
    pairlist engine whenever the box admits it, else the paper's
    per-step O(N²) gather.  With the list, each step visits only the
    stored neighbours and the build's candidate scan is charged on the
    steps where the list is rebuilt; the device label then ends in
    "(pairlist)".  Pass {!Force_path.brute} to pin the N² stress-test
    behaviour (the paper-figure harness does). *)

val seconds_for : ?steps:int -> ?force_path:Force_path.t -> n:int -> unit ->
  float
(** Convenience for sweeps: build a default system of [n] atoms
    ({!Mdcore.Init.build}) and return the virtual runtime. *)

val memory_excess_cycles_per_pair : n:int -> unit -> float
(** The measured average memory-stall cycles per pair at a given system
    size, from a warm cache (diagnostic for the Fig. 9 analysis): 0 at
    2048 atoms, 4.284 at 4000 (L1 capacity), 36.0 at 4095 and 4096 (set
    conflicts), 4.508 at 4097. *)
