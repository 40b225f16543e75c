(** The GPU port of the MD kernel (Section 5.2 of the paper).

    Faithful to the paper's streaming formulation:

    - one input texture holds all atom positions, one render target
      receives the new accelerations — "one input array comprising the
      positions, and one output array comprising the new accelerations";
    - the shader runs once per atom and scans the whole position texture
      for interacting neighbours (gather only; predicated force math);
    - each atom's PE contribution rides in the output's fourth component
      and is summed on the CPU after the readback — "we can simply store
      each atom's PE contribution in the fourth component, and when we
      read back the accelerations these values are retrieved for free";
    - positions are re-uploaded and accelerations read back across the
      bus every time step; the one-time JIT compilation cost is reported
      separately (the paper excludes it from Fig. 7).

    The host CPU is the same 2.2 GHz Opteron as the reference port; its
    serial work (staging, PE sum, integration) is charged with the
    {!Isa.Opteron_pipe} model. *)

type pe_strategy =
  | Readback_w
      (** the paper's choice: each atom's PE rides in the output's fourth
          component and is summed on the CPU after the (already required)
          acceleration readback — "these values are retrieved for free" *)
  | Gpu_reduction
      (** the alternative the paper rejects: "introduce one or more
          additional passes to accumulate each atom's contribution ...
          called a reduction operation.  However, this method introduces
          significant overheads."  Implemented as 8-to-1 render-to-texture
          passes plus a one-texel readback, so the rejection is
          quantified rather than asserted. *)

val run : ?steps:int -> ?machine:Gpustream.Config.t ->
  ?pe_strategy:pe_strategy -> ?force_path:Force_path.t ->
  Mdcore.System.t -> Run_result.t
(** The breakdown carries the GPU ledger categories (setup / upload /
    readback / dispatch / shader / cpu); [seconds] {e excludes} the
    one-time setup, as Fig. 7 does.  Default strategy: [Readback_w].

    [force_path] defaults to the pairlist when the box admits it: the
    shader walks packed neighbour indices fetched from an extra texture
    (four per float4 texel, plus a per-row descriptor texture), and
    those textures cross the PCIe bus {e only on rebuild steps} —
    positions still upload every step.  The CPU is charged for the
    rebuild's candidate scan.  Brute N² otherwise. *)

val setup_seconds : Run_result.t -> float
(** The excluded one-time startup cost, for reporting. *)
