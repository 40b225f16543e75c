(** An experiment = one table or figure of the paper.

    Running an experiment yields a rendered data table (the same rows or
    series the paper plots) plus a list of shape checks asserting the
    paper's prose claims against the measured values. *)

type check = { name : string; passed : bool; detail : string }

type outcome = {
  id : string;
  title : string;
  table : Sim_util.Table.t;
  checks : check list;
  notes : string list;
  figure : string option;
      (** pre-rendered ASCII chart of the artifact (the paper's figures
          are plots, so the reproduction draws them too) *)
  virtual_seconds : (string * float) list;
      (** per-device (or per-series-point) virtual run times backing the
          table, keyed ["device"] or ["device/n"] — exported by
          {!Report.metrics_json} so the metrics file alone reproduces
          the speedup comparisons *)
}

type t = {
  id : string;           (** "table1", "fig5", ... *)
  title : string;
  paper_ref : string;    (** where in the paper the artifact lives *)
  run : Context.t -> outcome;
}

val check_band : name:string -> Paper_data.band -> float -> check
val check_pred : name:string -> detail:string -> bool -> check
val all_passed : outcome -> bool
