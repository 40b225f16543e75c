(** Static timing model of a 2006-era GPU pixel pipeline (GeForce
    7900GTX-class, the card the paper measures).

    A fragment (shader invocation) is timed by a pure throughput model:
    GPUs of that generation keep hundreds of fragments in flight, so
    dependence latency is fully hidden and the cost of a fragment is the
    sum of per-op issue costs.  The device runs [pipes] fragments in
    parallel (24 pixel pipelines on the 7900GTX), so a dispatch of [n]
    fragments takes [n * cycles_per_fragment / pipes] cycles of shader
    core time. *)

val cycles_per_fragment : Block.t -> float
(** Sum of issue costs; raises on blocks containing [Store]s beyond one
    output write or on data-dependent branches (modelled as both-sides
    execution, the 2006 hardware reality). *)

val dispatch_cycles : Block.t -> fragments:int -> pipes:int -> float
(** Shader-core cycles to process [fragments] invocations of the block on
    [pipes] parallel pipelines (ceil-free fluid model; the error is
    negligible at the fragment counts the paper uses). *)
