(** Set-associative cache with LRU replacement.

    Fig. 9 of the paper attributes the Opteron's super-quadratic runtime
    growth to cache misses once the position arrays outgrow the caches.
    Rather than asserting that effect, the Opteron port replays its actual
    inner-loop address stream through this simulator and charges the
    resulting miss penalties. *)

type t

val create : line_bytes:int -> sets:int -> ways:int -> t
(** All three parameters must be positive; [line_bytes] and [sets] must be
    powers of two (index/offset extraction is by bit masking, as in
    hardware). *)

val capacity_bytes : t -> int

type outcome = Hit | Miss

val access : t -> int -> outcome
(** [access t addr] looks up the byte address, updating recency and
    allocating on miss (write-allocate; reads and writes behave alike at
    this resolution).  Addresses must be nonnegative. *)

val contains : t -> int -> bool
(** Lookup without disturbing recency or allocating (for tests). *)

val hits : t -> int
val misses : t -> int
val accesses : t -> int
val miss_rate : t -> float
(** 0 when no accesses have been made. *)

val reset_stats : t -> unit
val flush : t -> unit
(** Empty all lines and reset statistics. *)
