(** Virtual address-space layout for trace generation.

    The cache simulator needs realistic byte addresses for the arrays the
    MD kernel touches.  This allocator hands out disjoint, aligned address
    ranges exactly like a bump allocator in a real runtime would, so that
    array-vs-array set conflicts behave plausibly. *)

type t

val create : ?base:int -> unit -> t
(** Default base is 4096 (skip the null page, as a real mmap would). *)

val alloc : t -> bytes:int -> align:int -> int
(** [alloc t ~bytes ~align] reserves [bytes] and returns the base address.
    [align] must be a positive power of two; [bytes] nonnegative. *)

val alloc_float_array : t -> n:int -> int
(** Convenience: [n] doubles, 64-byte (cache-line) aligned — the layout a
    C [posix_memalign]'d array of doubles would get. *)

