module Units = Sim_util.Units

type texture = { tex_name : string; data : Vecmath.Vec4f.t array }
type render_target = { rt_name : string; pixels : Vecmath.Vec4f.t array }
type shader = {
  shader_name : string;
  body : Isa.Block.t;
  prologue : Isa.Block.t;
}

(* Virtual PMU counters (see DESIGN.md, "Profiling"): the texture-fetch
   and PCIe traffic the paper's GPU analysis reasons about. *)
type prof_set = {
  p_texture_fetches : Mdprof.counter;
  p_fragments_shaded : Mdprof.counter;
  p_draw_calls : Mdprof.counter;
  p_rt_binds : Mdprof.counter;
  p_pcie_bytes_up : Mdprof.counter;
  p_pcie_bytes_down : Mdprof.counter;
  p_vram_bytes : Mdprof.gauge;
}

type t = {
  cfg : Config.t;
  ledger : Ledger.t;
  mutable wall : float;
  mutable vram : int;
  mutable vram_peak : int;
  obs : Mdobs.track option;  (* virtual-clock machine track *)
  prof : prof_set option;
  ft_pcie : Mdfault.stream;     (* PCIe corruption/drop -> retransfer *)
  ft_texture : Mdfault.stream;  (* silent VRAM read bit flip (no ECC) *)
}

let make_prof () =
  if not (Mdprof.enabled ()) then None
  else
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    Some
      {
        p_texture_fetches = c "gpu/texture_fetches";
        p_fragments_shaded = c "gpu/fragments_shaded";
        p_draw_calls = c "gpu/draw_calls";
        p_rt_binds = c "gpu/render_target_binds";
        p_pcie_bytes_up = c ~unit_:"bytes" "gpu/pcie_bytes_up";
        p_pcie_bytes_down = c ~unit_:"bytes" "gpu/pcie_bytes_down";
        p_vram_bytes =
          Mdprof.gauge ~unit_:"bytes" ~clock:Mdprof.Virtual "gpu/vram_bytes";
      }

let create cfg =
  Config.validate cfg;
  let obs =
    if Mdobs.enabled () then Some (Mdobs.new_track ~clock:Mdobs.Virtual "gpu")
    else None
  in
  { cfg; ledger = Ledger.create (); wall = 0.0; vram = 0; vram_peak = 0; obs;
    prof = make_prof ();
    ft_pcie = Mdfault.stream Mdfault.Gpu_pcie "gpu";
    ft_texture = Mdfault.stream Mdfault.Gpu_texture "gpu" }

let time t = t.wall
let ledger t = t.ledger

let reset t =
  t.wall <- 0.0;
  t.vram <- 0;
  t.vram_peak <- 0;
  Ledger.reset t.ledger

let vram_used t = t.vram
let vram_peak t = t.vram_peak

let charge t cat seconds =
  (match t.obs with
  | Some tr ->
    Mdobs.span tr ~name:(Ledger.category_name cat) ~ts:t.wall ~dur:seconds ()
  | None -> ());
  t.wall <- t.wall +. seconds;
  Ledger.add t.ledger cat seconds

let texel_bytes = 16 (* float4 *)

let note_vram t =
  if t.vram > t.vram_peak then t.vram_peak <- t.vram;
  (match t.prof with
  | Some p -> Mdprof.set p.p_vram_bytes (float_of_int t.vram)
  | None -> ());
  match t.obs with
  | Some tr -> Mdobs.counter tr ~name:"vram" ~ts:t.wall (float_of_int t.vram)
  | None -> ()

let claim_vram t bytes what =
  if t.vram + bytes > t.cfg.vram_bytes then
    invalid_arg
      (Printf.sprintf "Gpustream: out of device memory allocating %s" what);
  t.vram <- t.vram + bytes;
  note_vram t

let check_texels t ~name texels =
  if texels < 0 then
    invalid_arg (Printf.sprintf "Gpustream: negative size for %s" name);
  if texels > t.cfg.max_texels then
    invalid_arg
      (Printf.sprintf
         "Gpustream: %s (%d texels) exceeds the hardware texture limit (%d)"
         name texels t.cfg.max_texels)

(* Allocate the backing array *before* claiming VRAM: if [Array.make]
   raises (host allocation failure), the device-memory ledger must not
   keep the bytes claimed forever.  [claim_vram] itself raises before
   mutating, so either both succeed or neither side effect happens. *)
let create_texture t ~name ~texels =
  check_texels t ~name texels;
  let data = Array.make texels Vecmath.Vec4f.zero in
  claim_vram t (texels * texel_bytes) name;
  { tex_name = name; data }

let create_render_target t ~name ~texels =
  check_texels t ~name texels;
  let pixels = Array.make texels Vecmath.Vec4f.zero in
  claim_vram t (texels * texel_bytes) name;
  { rt_name = name; pixels }

let transfer_seconds t ~bytes ~bandwidth =
  Units.transfer_seconds ~bytes ~bandwidth ~latency:t.cfg.transfer_latency

(* A corrupted or dropped PCIe transfer is detected by checksum and
   retransferred whole: each faulted attempt re-pays the full transfer,
   plus the driver's exponential backoff. *)
let pcie_fault_penalty t ~dir ~bytes ~bandwidth =
  if Mdfault.inert t.ft_pcie then 0.0
  else
    let failures, backoff =
      Mdfault.attempt t.ft_pcie ~detail:(fun () ->
          Printf.sprintf "pcie %s checksum, %d bytes" dir bytes)
    in
    if failures = 0 then 0.0
    else
      (float_of_int failures *. transfer_seconds t ~bytes ~bandwidth)
      +. backoff

let upload t tex data =
  if Array.length data <> Array.length tex.data then
    invalid_arg
      (Printf.sprintf "Gpustream.upload: size mismatch for %s" tex.tex_name);
  Array.blit data 0 tex.data 0 (Array.length data);
  let bytes = Array.length data * texel_bytes in
  (match t.prof with
  | Some p -> Mdprof.add p.p_pcie_bytes_up bytes
  | None -> ());
  charge t Upload
    (transfer_seconds t ~bytes ~bandwidth:t.cfg.upload_bandwidth
    +. pcie_fault_penalty t ~dir:"up" ~bytes
         ~bandwidth:t.cfg.upload_bandwidth)

let readback t rt =
  let bytes = Array.length rt.pixels * texel_bytes in
  (match t.prof with
  | Some p -> Mdprof.add p.p_pcie_bytes_down bytes
  | None -> ());
  charge t Readback
    (transfer_seconds t ~bytes ~bandwidth:t.cfg.readback_bandwidth
    +. pcie_fault_penalty t ~dir:"down" ~bytes
         ~bandwidth:t.cfg.readback_bandwidth);
  Array.copy rt.pixels

let release t bytes =
  t.vram <- max 0 (t.vram - bytes);
  note_vram t

let free_texture t tex = release t (Array.length tex.data * texel_bytes)

let resolve_to_texture t rt tex =
  if Array.length rt.pixels <> Array.length tex.data then
    invalid_arg
      (Printf.sprintf "Gpustream.resolve_to_texture: %s and %s differ in size"
         rt.rt_name tex.tex_name);
  Array.blit rt.pixels 0 tex.data 0 (Array.length rt.pixels);
  (match t.prof with
  | Some p -> Mdprof.incr p.p_rt_binds
  | None -> ());
  charge t Dispatch t.cfg.dispatch_overhead

(* [fetched] counts this sampler's texel reads; [dispatch] adds the
   total to [gpu/texture_fetches] once, so a block of fragments on any
   domain counts into its own sampler. *)
type sampler = {
  bound : texture array;
  ft_texture : Mdfault.stream;
  mutable fetched : int;
}

(* Consumer VRAM has no ECC: a bit flip on the texture-read path is
   silent.  Flip one drawn bit of one drawn lane in the binary32
   representation of the fetched texel — the store is untouched, only
   this read observes the corruption. *)
let texture_flip s tex i v =
  let lane = Mdfault.draw_int s.ft_texture 4 in
  let bit = Mdfault.draw_int s.ft_texture 32 in
  Mdfault.record_silent s.ft_texture ~detail:(fun () ->
      Printf.sprintf "%s texel %d lane %d bit %d" tex.tex_name i lane bit);
  let bits = Int32.bits_of_float (Vecmath.Vec4f.lane v lane) in
  let flipped =
    Int32.float_of_bits (Int32.logxor bits (Int32.shift_left 1l bit))
  in
  Vecmath.Vec4f.with_lane v lane flipped

let sample s ~input i =
  if input < 0 || input >= Array.length s.bound then
    invalid_arg "Gpustream.sample: input slot out of range";
  let tex = s.bound.(input) in
  if i < 0 || i >= Array.length tex.data then
    invalid_arg
      (Printf.sprintf "Gpustream.sample: texel %d out of range for %s" i
         tex.tex_name);
  s.fetched <- s.fetched + 1;
  let v = tex.data.(i) in
  if (not (Mdfault.inert s.ft_texture)) && Mdfault.fire s.ft_texture then
    texture_flip s tex i v
  else v

let texels s ~input ~lo ~hi ~fetches =
  if not (Mdfault.inert s.ft_texture) then [||]
  else begin
    if input < 0 || input >= Array.length s.bound then
      invalid_arg "Gpustream.texels: input slot out of range";
    let tex = s.bound.(input) in
    if lo <= hi && (lo < 0 || hi >= Array.length tex.data) then
      invalid_arg
        (Printf.sprintf "Gpustream.texels: texels %d..%d out of range for %s"
           lo hi tex.tex_name);
    s.fetched <- s.fetched + fetches;
    tex.data
  end

let compile t ~name ~body ~prologue =
  charge t Setup t.cfg.jit_seconds;
  { shader_name = name; body; prologue }

(* Functional execution: one invocation per output texel; the shader can
   only write its own location because the API takes its return value. *)
let shade target f sampler ~lo ~hi =
  for i = lo to hi - 1 do
    target.pixels.(i) <- f sampler i
  done

let dispatch t shader ~inputs ~target ?(loop_trip = 1) ?pool ~f () =
  if List.length inputs > t.cfg.max_inputs then
    invalid_arg
      (Printf.sprintf "Gpustream.dispatch: %d inputs exceeds limit %d"
         (List.length inputs) t.cfg.max_inputs);
  if loop_trip < 0 then invalid_arg "Gpustream.dispatch: loop_trip < 0";
  let bound = Array.of_list inputs in
  let sampler () = { bound; ft_texture = t.ft_texture; fetched = 0 } in
  let n = Array.length target.pixels in
  (match t.prof with
  | Some p ->
      Mdprof.incr p.p_draw_calls;
      Mdprof.incr p.p_rt_binds;
      Mdprof.add p.p_fragments_shaded n
  | None -> ());
  (* Texel blocks run on the pool only while the texture fault stream
     is inert: a live stream draws per fetch, in texel order.  A
     1-domain pool runs the blocks inline, in texel order. *)
  let fetched =
    match pool with
    | Some pool when Mdfault.inert t.ft_texture ->
      let blocks = min n (4 * Mdpar.size pool) in
      let counts = Array.make blocks 0 in
      Mdpar.parallel_for pool ~chunk:1 ~lo:0 ~hi:(blocks - 1) (fun b ->
          let s = sampler () in
          shade target f s ~lo:(b * n / blocks) ~hi:((b + 1) * n / blocks);
          counts.(b) <- s.fetched);
      Array.fold_left ( + ) 0 counts
    | _ ->
      let s = sampler () in
      shade target f s ~lo:0 ~hi:n;
      s.fetched
  in
  (match t.prof with
  | Some p -> Mdprof.add p.p_texture_fetches fetched
  | None -> ());
  charge t Dispatch t.cfg.dispatch_overhead;
  let cycles =
    (Isa.Gpu_pipe.dispatch_cycles shader.body ~fragments:(n * loop_trip)
       ~pipes:t.cfg.pipes
    +. Isa.Gpu_pipe.dispatch_cycles shader.prologue ~fragments:n
         ~pipes:t.cfg.pipes)
    /. t.cfg.shader_efficiency
  in
  charge t Shader (Units.seconds_of_cycles t.cfg.clock cycles)

let cpu_charge t ~seconds =
  if seconds < 0.0 then invalid_arg "Gpustream.cpu_charge: negative";
  charge t Cpu seconds
