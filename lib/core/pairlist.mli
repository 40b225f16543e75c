(** Verlet neighbour-list force engine.

    Section 3.4 of the paper singles out "the neighboring atom pairlist
    construction, which is updated every few simulation time steps" as the
    most common cache-friendliness technique — and then deliberately does
    not use it, to keep the kernel a pure N² stress test.  We implement it
    and, since the port simulators exist to explore what the architectures
    can do, run production force evaluations through it (the ports fall
    back to the brute engine only when {!admissible} says the box is too
    small).

    The list stores, per atom, all neighbours within [cutoff + skin]; it is
    rebuilt automatically when any atom has drifted more than [skin/2]
    since the last build (the classical sufficient condition for the list
    to still cover every pair within the cutoff).

    {b Box-size thresholds.}  Two different bounds apply, deliberately
    aligned here so callers can reason about them together:
    - [box < 2*(cutoff+skin)] — the minimum-image bound.  Below it a
      neighbour and its periodic image are not distinguishable, so
      {!create} raises and {!admissible} is false; engines fall back to
      the brute O(N²) path instead.
    - [box < 3*(cutoff+skin)] — fewer than 3 cells per axis.  The list is
      still correct, but the 27-cell stencil would double-visit periodic
      images, so builds use the O(N²) scan ([{!uses_cells} = false]).
      The stored list is identical either way. *)

type t

val default_skin : float
(** 0.4σ — the conventional skin for a reduced-units LJ liquid. *)

val admissible : ?skin:float -> System.t -> bool
(** Whether {!create} would accept this system: [skin] positive and
    finite, and [box >= 2*(cutoff+skin)] (the min-image bound).  Ports
    use this to decide between the list engine and the brute fallback. *)

val create : ?skin:float -> ?pool:Mdpar.t -> System.t -> t
(** [skin] defaults to {!default_skin}.  Raises [Invalid_argument] if
    [skin] is NaN, infinite or nonpositive, or if [cutoff + skin] exceeds
    the min-image bound ([box < 2*(cutoff+skin)]).

    Builds are O(N): atoms are binned into cells at least [cutoff+skin]
    wide (buffers allocated here, reused on every rebuild) and each
    atom's candidates come from the 27-cell stencil; the per-row scans
    run on the {!Mdpar} pool ([pool], defaulting to [Mdpar.get ()] at
    build time).  Rows are sorted ascending, so the stored lists — and
    hence forces, PE, rebuild cadence and interaction counts — are
    bit-identical to the O(N²) scan for any pool size.  Boxes narrower
    than 3 cells per axis fall back to the O(N²) scan. *)

val create_uninstrumented : System.t -> t
(** {!create} with the default skin and pool, registering no Mdprof
    instrument and no Mdobs track.  For lists that belong to no
    simulated device: {!Init.relax} builds one inside [Init.build],
    which [mdsim run] calls after enabling profiling, and an
    instrumented list there would add its builds to the run's virtual
    counters. *)

val axis_cells : box:float -> width:float -> int
(** Epsilon-tolerant [floor (box / width)]: accepts [m] when
    [float m *. width] exceeds [box] by at most a few ulps, so a box
    that is an exact multiple of [width] is never short a cell because
    the floating division landed one ulp below the integer.  Sizes the
    cell grid of the build strategy above; raises [Invalid_argument]
    unless [width > 0]. *)

val engine : t -> Engine.t
(** An engine bound to this list's bookkeeping.  The engine must only be
    used with the system the list was created for (checked).

    The compute is a Newton-3 half-list traversal over contiguous row
    chunks, each accumulating into its own force buffer.  Below 512
    atoms there is one chunk, run inline; above, the chunks run on the
    pool and their buffers merge in fixed chunk order.  The chunk count
    is a pure function of [n], so forces, PE and interaction counts are
    byte-identical across pool sizes ([--domains]) and across rebuild
    cadence (list entries beyond the cutoff contribute nothing). *)

val refresh : t -> bool
(** Rebuild if the drift trigger demands it; [true] when a rebuild
    happened.  Ports call this at the top of each force evaluation so
    they can charge the rebuild's scan cost explicitly. *)

val full_rows : t -> int array array
(** Full neighbour rows (each unordered pair appears in both partners'
    rows, partners strictly ascending — the same per-row hit order an
    O(N²) gather produces), derived lazily from the half-list and cached
    per build.  The gather-style ports (Cell, GPU, MTA) traverse these.
    Raises [Invalid_argument] before the first build. *)

val full_entry_count : t -> int
(** Total entries across {!full_rows} (= 2 × {!neighbour_count}). *)

type partners =
  | All of int  (** the N² sweep: every atom below n *)
  | Rows of int array array  (** full neighbour-list rows *)

val gather : System.t -> partners -> row_hits:int array -> float * int
(** The double-precision row gather: for every atom [i] of the system,
    sum the LJ terms over its partners into [acc_*], write the row's
    in-cutoff count to [row_hits.(i)], and return (PE, ordered-pair hit
    count).  [All n] sweeps every [j <> i] below [n]; [Rows] walks each
    row's stored partners.  Bit-identical to
    [Forces.compute_gather_stats] on the same positions, with [All n] or
    with the {!full_rows} of a list current for them.  Raises [Invalid_argument] when a partner or the [All]
    length lies outside the positions, or when [Rows] or [row_hits] has
    fewer than n entries.  Allocates nothing per pair. *)

val compute_full_stats : t -> System.t -> float * int
(** {!gather} over this list's {!full_rows} (per-row hits into a buffer
    the list owns).  Rebuilds first if the drift trigger demands it. *)

val rebuild_count : t -> int
(** Number of list constructions so far (tests assert the every-few-steps
    cadence). *)

val last_build_scanned : t -> int
(** Candidate pairs whose distance the most recent build examined —
    [n(n-1)/2] for brute builds, the 27-cell stencil population for
    cell-binned builds.  Ports charge this for rebuild scans. *)

val neighbour_count : t -> int
(** Total stored neighbour entries (diagnostics). *)

val last_interaction_count : t -> int
(** In-cutoff pairs found by the most recent force evaluation (each
    unordered pair once under the Newton-3 engine, each ordered pair
    under {!compute_full_stats}); 0 before the first evaluation. *)

val force_rebuild : t -> unit

val force_rebuild_brute : t -> unit
(** Rebuild with the O(N²) scan regardless of box size — the bench
    ablation baseline for the cell-binned build (same stored lists). *)

val uses_cells : t -> bool
(** Whether builds use the O(N) cell-binned path (false only for boxes
    under 3 cells per axis). *)
