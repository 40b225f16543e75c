(** Reference double-precision force evaluation.

    Two shapes of the same O(N²) Lennard-Jones sum:

    - {!gather_engine}: for each atom, scan all N−1 others — the paper's
      pseudocode ("compute distance with all other N−1 atoms"), and the
      only shape expressible on the GPU/SPE/MTA ports.  Each pair is
      evaluated twice; the potential energy is halved accordingly.
    - {!compute_newton3}: half the pairs with action–reaction — the
      standard serial-CPU optimization, kept as an ablation to quantify
      what the gather formulation costs.

    Both evaluate distances on the fly with no neighbour list: "We do not
    employ any optimization technique that has been proposed for
    cache-based systems.  Instead, we calculate the distances on the fly".
    They are the references every other force path — {!Pairlist} and
    the device ports — is tested against. *)

val gather_engine : Engine.t

val compute_gather : System.t -> float
val compute_newton3 : System.t -> float

val compute_gather_stats : System.t -> float * int
(** Like {!compute_gather}, additionally returning the number of
    in-cutoff interactions found (each unordered pair counted twice, as
    the gather loop encounters it) — the quantity the architecture ports
    charge their hit-path cycles by. *)
