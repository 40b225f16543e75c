(** Small statistics toolkit used by the experiment harness to summarize
    runtimes and to check scaling *shapes* (e.g. "MTA-2 runtime grows as
    N^2 while the Opteron grows faster") via regression in log space. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for arrays of length <2. *)

val minimum : float array -> float
val maximum : float array -> float

val sorted_copy : float array -> float array
(** Ascending copy ordered by [Float.compare] (total: [-0.] before [0.],
    NaNs first), leaving the input untouched. *)

val median : float array -> float
(** Median by sorting a copy; average of the middle two for even lengths. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. *)

type linear_fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination *)
}

val linear_regression : x:float array -> y:float array -> linear_fit
(** Ordinary least squares fit of [y = slope*x + intercept]. *)

val power_law_exponent : x:float array -> y:float array -> float
(** Exponent [k] of the best fit [y = c * x^k], i.e. the slope of the
    log-log regression.  Inputs must be strictly positive. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive values. *)

val relative_error : expected:float -> actual:float -> float
(** |actual - expected| / |expected|. *)
