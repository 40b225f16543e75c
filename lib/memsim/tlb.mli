(** Translation lookaside buffer: fully-associative, LRU, fixed page
    size.

    The K8's L1 DTLB holds 32 entries of 4 KB pages — under 2 MB of
    reach, which the MD kernel's nine arrays outgrow well before the
    caches do.  The Opteron port charges TLB miss penalties alongside the
    cache hierarchy, adding the second ingredient of Fig. 9's
    super-quadratic growth. *)

type t

val create : ?page_bytes:int -> ?entries:int -> ?miss_cycles:int -> unit -> t
(** Defaults: 4 KB pages, 32 entries, 25-cycle page-walk penalty
    (K8 figures).  [page_bytes] must be a power of two. *)

val access : t -> int -> int
(** [access t addr] returns the cycle cost of the translation: 0 on a TLB
    hit, the miss penalty on a walk (which also installs the entry). *)

val hits : t -> int
val misses : t -> int
val reach_bytes : t -> int
(** [entries * page_bytes] — the address range the TLB can cover. *)

val flush : t -> unit
