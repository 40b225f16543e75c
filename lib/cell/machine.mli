(** The Cell BE machine model: one PPE orchestrating SPE offloads.

    The model follows the paper's "Asynchronous Thread Runtime" usage: the
    PPE runs the serial parts of the application and offloads a
    performance-critical function to [k] SPE threads.  Each offload is
    simulated functionally — the kernel really computes, in single
    precision, against its SPE's local store — while virtual wall time is
    accrued as

    {v spawn/signal (serial on the PPE)  +  max over SPEs of
       (DMA time + compute time) v}

    and decomposed into a {!Ledger} (Fig. 6 plots exactly that
    decomposition).  Thread-launch amortization is the experiment: in
    [Respawn] mode every offload pays thread creation for each SPE; in
    [Persistent] mode threads are created once and subsequent offloads pay
    only a mailbox handshake per SPE. *)

type t

val create : Config.t -> t

val time : t -> float
(** Virtual wall-clock seconds accrued so far. *)

val ledger : t -> Ledger.t
(** Invariant (tested): [Ledger.total (ledger t) = time t]. *)

val reset : t -> unit
(** Zero the clock and ledger and terminate persistent threads. *)

val spawned_spes : t -> int
(** Number of persistent SPE threads currently alive. *)

(** {1 SPE-side context} *)

type spe_ctx

val spe_id : spe_ctx -> int
val local_store : spe_ctx -> Local_store.t

val dma_get : spe_ctx -> src:float array -> src_pos:int ->
  dst:Local_store.buffer -> dst_pos:int -> len:int -> unit
(** Transfer [len] floats from main memory into the local store (rounding
    to binary32), charging the SPE's DMA engine: the transfer is split into
    requests of at most [dma_max_request] bytes, each paying the request
    latency plus bytes/bandwidth. *)

val dma_put : spe_ctx -> src:Local_store.buffer -> src_pos:int ->
  dst:float array -> dst_pos:int -> len:int -> unit

val charge_cycles : spe_ctx -> float -> unit
(** Add raw SPE compute cycles (must be nonnegative). *)

val charge_block : spe_ctx -> Isa.Block.t -> iterations:int ->
  overlap:float -> unit
(** Charge a basic block's estimated cycles via {!Isa.Spe_pipe}. *)

(** {1 PPE-side operations} *)

type launch_mode = Respawn | Persistent

val offload : t -> spes:int -> mode:launch_mode -> (spe_ctx -> unit) -> unit
(** Run the kernel on [spes] SPE threads.  The kernel function is invoked
    once per SPE with that SPE's context; kernels run concurrently in
    virtual time (wall time advances by the maximum busy time), so kernels
    must not depend on each other's side effects within one offload.
    Raises [Invalid_argument] if [spes] is outside [1 .. n_spes]. *)

val ppe_charge : t -> seconds:float -> unit
(** Serial PPE work measured externally. *)

val ppe_block : t -> Isa.Block.t -> iterations:int -> unit
(** Serial PPE work estimated from a block: the in-order PPE is modelled
    as the Opteron resource model handicapped by [ppe_slowdown], at the
    Cell clock. *)

val dma_seconds : ?active_spes:int -> t -> bytes:int -> float
(** The DMA cost function, exposed for tests and capacity planning:
    per-request latency plus bytes over the effective bandwidth — one
    SPE's engine limit, or a fair share of the 25.6 GB/s memory interface
    when [active_spes] stream concurrently (default 1). *)
