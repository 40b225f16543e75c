type check = { name : string; passed : bool; detail : string }

type outcome = {
  id : string;
  title : string;
  table : Sim_util.Table.t;
  checks : check list;
  notes : string list;
  figure : string option;
  virtual_seconds : (string * float) list;
}

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : Context.t -> outcome;
}

let check_band ~name band value =
  { name;
    passed = Paper_data.in_band band value;
    detail = Paper_data.describe band value }

let check_pred ~name ~detail passed = { name; passed; detail }

let all_passed o = List.for_all (fun c -> c.passed) o.checks
