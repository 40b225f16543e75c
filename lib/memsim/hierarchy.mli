(** Two-level cache hierarchy backed by DRAM.

    The Opteron port charges every modelled load with the cycle cost this
    hierarchy reports, so miss behaviour — not a fitted curve — produces
    Fig. 9's divergence from pure N^2 scaling. *)

type t

type config = {
  l1_line_bytes : int;
  l1_sets : int;
  l1_ways : int;
  l1_hit_cycles : int;     (** load-to-use on an L1 hit *)
  l2_line_bytes : int;
  l2_sets : int;
  l2_ways : int;
  l2_hit_cycles : int;     (** additional cycles on L1 miss / L2 hit *)
  dram_cycles : int;       (** additional cycles on L2 miss *)
}

val opteron_2_2ghz : config
(** The paper's reference machine: 64 KB 2-way L1 with 64-byte lines,
    1 MB 16-way L2, ~3/12/200-cycle access costs at 2.2 GHz. *)

val create : config -> t

val access : t -> int -> int
(** [access t addr] returns the cycle cost of a load at byte address
    [addr], updating both levels (inclusive hierarchy: an L2 hit refills
    L1; a DRAM access refills both). *)

val accesses : t -> int
val total_cycles : t -> int
(** Sum of all costs charged since creation or the last [reset]. *)

val average_cycles : t -> float
