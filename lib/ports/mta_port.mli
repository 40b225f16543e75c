(** The Cray MTA-2 port of the MD kernel (Section 5.3 of the paper).

    Double precision throughout, like the Opteron reference: the physics
    is the shared binary64 row gather {!Mdcore.Pairlist.gather}, so its
    records are bitwise those of the Cell's binary64 profile.  The
    paper's compiler story is modelled explicitly:

    - the hot acceleration loop (step 2) {e carries a reduction
      dependency}, so the MTA compiler refuses to parallelize it as
      written — that is the [Partially_multithreaded] mode, where the
      O(N²) loop runs on a single stream and pays the full uniform memory
      latency on every reference;
    - in [Fully_multithreaded] mode the reduction has been moved into the
      loop body (a full/empty-bit accumulate) and the loop carries the
      no-dependence pragma, so it spreads across all 128 streams.

    Every other loop of the kernel is auto-parallelized in both modes,
    "without any code modification". *)

type mode = Fully_multithreaded | Partially_multithreaded

val mode_name : mode -> string

val run : ?steps:int -> ?mode:mode -> ?machine:Mta.Config.t ->
  ?force_path:Force_path.t -> Mdcore.System.t -> Run_result.t
(** Default mode: fully multithreaded; default machine: 1-processor
    MTA-2.

    Physics is one {!Mdcore.Pairlist.gather} call per force evaluation
    on either force path, bit-identical to the gather reference.
    [force_path] defaults to the pairlist: the streams pull iterations
    from the stored neighbour rows instead of the N² sweep, and rebuild
    steps stream the build's candidate scan as an extra charged region.
    Boxes below the min-image bound fall back to the brute engine. *)
