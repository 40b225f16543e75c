(** The GPU stream-processor machine model.

    The model reproduces the 2006 GPGPU programming contract the paper
    works within:

    - arrays live on the device as {e textures} (read-only inputs) or
      {e render targets} (write-only outputs) of float4 texels — "arrays
      must be designated as either input or output, but not both";
    - a {e shader} runs once per output texel; it may gather from any
      input location but writes only its own output location (the API
      enforces this: the shader function receives a sampling context with
      no access to any render target, and produces exactly one float4);
    - constants are baked in at {e compile} time by a JIT whose cost is
      charged once;
    - all traffic between host and device crosses a bus with per-transfer
      latency and asymmetric bandwidth.

    All numeric state is single precision ({!Vecmath.Vec4f}). *)

type t
type texture
type render_target
type shader

val create : Config.t -> t
val time : t -> float
val ledger : t -> Ledger.t
(** Invariant (tested): ledger total = machine time. *)

val reset : t -> unit
(** Zero clock/ledger and free all device memory.  Shaders survive (the
    JIT cache), textures do not. *)

val vram_used : t -> int

val vram_peak : t -> int
(** High-water mark of device memory since creation (or {!reset}). *)

(** {1 Device memory} *)

val create_texture : t -> name:string -> texels:int -> texture
(** Raises [Invalid_argument] when VRAM would be exceeded. *)

val create_render_target : t -> name:string -> texels:int -> render_target

val upload : t -> texture -> Vecmath.Vec4f.t array -> unit
(** Host-to-device copy: charges latency + bytes/upload-bandwidth.  The
    array length must equal the texture size. *)

val readback : t -> render_target -> Vecmath.Vec4f.t array
(** Device-to-host copy of the whole target; charges readback cost. *)

val free_texture : t -> texture -> unit
(** Return a texture's VRAM to the pool.  Using the texture afterwards is
    a host-program bug the simulator does not police (as the real driver
    did not). *)

val resolve_to_texture : t -> render_target -> texture -> unit
(** Device-internal copy of a render target into a texture of the same
    size (render-to-texture ping-pong, the idiom multi-pass GPGPU
    reductions require).  Charges one dispatch overhead but no bus
    traffic. *)

(** {1 Shaders} *)

type sampler
(** What a shader invocation is allowed to see: input textures only. *)

val sample : sampler -> input:int -> int -> Vecmath.Vec4f.t
(** [sample s ~input i] reads texel [i] of the [input]-th bound texture.
    Raises if the slot or index is out of range. *)

val texels :
  sampler -> input:int -> lo:int -> hi:int -> fetches:int ->
  Vecmath.Vec4f.t array
(** Bulk fetches for a shader that reads the [input]-th bound texture's
    store itself instead of calling {!sample} per texel.  While the
    texture fault stream is inert it checks the slot and texels
    [lo..hi] as {!sample} would (no texel when [hi < lo]; the caller
    bounds-checks any other texel it reads), adds [fetches] to the
    sampler's fetch count, and returns the store, which the caller must
    not modify.  While the stream is live it checks and counts nothing
    and returns [[||]]: every fetch must then go through {!sample}, so
    the fault draws replay. *)

val compile : t -> name:string -> body:Isa.Block.t ->
  prologue:Isa.Block.t -> shader
(** JIT a shader: [body] is the instruction stream of the shader's inner
    loop (executed [loop_trip] times per fragment at dispatch), [prologue]
    the per-fragment fixed work.  Compilation charges the one-time JIT
    setup cost — "constants were compiled into the shader program source
    using the provided JIT compiler at program initialization". *)

val dispatch : t -> shader -> inputs:texture list -> target:render_target ->
  ?loop_trip:int -> ?pool:Mdpar.t -> f:(sampler -> int -> Vecmath.Vec4f.t) ->
  unit -> unit
(** Execute the shader once per texel of [target]: texel [i] of the target
    becomes [f sampler i].  Charges per-call dispatch overhead plus
    shader-core time for [fragments * loop_trip] body iterations and
    [fragments] prologues (divided by the pipe count and the achieved
    efficiency).  Raises [Invalid_argument] if more than [max_inputs]
    textures are bound or [loop_trip < 0].

    With a [pool], contiguous blocks of texels are shaded on it, so [f]
    must be safe to call concurrently for distinct texels (shared
    mutable state per domain or per texel only); a 1-domain pool runs
    the blocks inline in texel order.  Texture fetches are counted per
    block and added to [gpu/texture_fetches] once per dispatch, the
    same total as a serial run.  While the texture fault stream is live
    the dispatch stays serial in texel order, so fault draws replay
    exactly.  Without [pool] texels are shaded serially in order. *)

val cpu_charge : t -> seconds:float -> unit
(** Host-side work (the paper sums per-atom PE contributions on the CPU
    "which is well suited to this scalar task"). *)
