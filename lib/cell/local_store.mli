(** An SPE's 256 KB local store.

    The local store is the defining constraint of the Cell programming
    model: code and data must be staged into it explicitly by DMA, and a
    kernel whose working set exceeds it must tile.  This module enforces
    the capacity (allocation past it raises {!Overflow}), and stores
    single-precision values — every [set] rounds to binary32, because
    that is what the SPE's quadword registers and the paper's port hold. *)

exception Overflow of { requested : int; available : int }

type t
type buffer

val create : capacity_bytes:int -> t
val alloc : t -> name:string -> floats:int -> buffer
(** Allocates a buffer of [floats] binary32 slots (4 bytes each, rounded up
    to quadword alignment).  Raises {!Overflow} if it does not fit. *)

val reset : t -> unit
(** Release all buffers (a new kernel run starts with an empty store).
    Previously returned buffers must not be used afterwards; access raises
    [Invalid_argument]. *)

val used_bytes : t -> int

val length : buffer -> int
val get : buffer -> int -> float
val set : buffer -> int -> float -> unit
(** Rounds the value to binary32. *)

val blit_from_array : src:float array -> src_pos:int -> dst:buffer ->
  dst_pos:int -> len:int -> unit
(** Copy doubles in, rounding each to binary32 (what a DMA of float data
    produced by a float-converting PPE staging loop holds). *)

val blit_to_array : src:buffer -> src_pos:int -> dst:float array ->
  dst_pos:int -> len:int -> unit
