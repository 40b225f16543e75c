(** Per-domain wall-clock budgets for supervised execution.

    A long-running experiment or port run is wrapped in {!with_budget};
    cooperative {!check} calls sprinkled through the hot loops (one per
    Verlet step) raise {!Expired} once the host clock passes the deadline.
    Budgets are domain-local so a pool of harness workers can each carry an
    independent per-experiment deadline; the disabled path is a single
    atomic load, preserving the zero-cost-when-off convention of the
    observability and fault layers.

    Deadlines use the {e host} clock, not simulated device time: the
    supervisor exists to bound real wall-clock spend (hung experiments,
    pathological retry storms), which virtual clocks by construction cannot
    measure. *)

exception Expired of float
(** Raised by {!check} when the current domain's budget (payload: the
    configured budget in seconds) has been exceeded. *)

val with_budget : seconds:float -> (unit -> 'a) -> 'a
(** [with_budget ~seconds f] runs [f] with a deadline [seconds] from now on
    this domain.  Nested budgets shadow (inner wins until it returns).  The
    budget is removed however [f] exits.  Raises [Invalid_argument] unless
    [seconds > 0]. *)

val check : unit -> unit
(** Raise {!Expired} if this domain is past its deadline; free when no
    budget is armed anywhere in the process. *)

