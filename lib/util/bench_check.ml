type baseline = {
  schema : string;
  default_tolerance : float;
  entries : (string * float * float) list;
}

type status = Pass | Regression | Improvement

type comparison = {
  name : string;
  baseline_ns : float;
  measured_ns : float;
  tolerance : float;
  ratio : float;
  status : status;
}

type outcome = {
  comparisons : comparison list;
  missing : string list;
  unbaselined : string list;
  failed : bool;
}

let known_schemas =
  [ "mdsim-bench-baseline-v1"; "mdsim-bench-v1"; "mdsim-bench-v2" ]

let parse_baseline ?(default_tolerance = 9.0) text =
  match Minijson.parse text with
  | exception Minijson.Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | json -> (
      let schema =
        Option.bind (Minijson.member "schema" json) Minijson.to_string
        |> Option.value ~default:"(missing)"
      in
      if not (List.mem schema known_schemas) then
        Error
          (Printf.sprintf "unrecognized baseline schema %S (expected one of %s)"
             schema
             (String.concat ", " known_schemas))
      else
        let default_tolerance =
          Option.bind (Minijson.member "default_tolerance" json)
            Minijson.to_float
          |> Option.value ~default:default_tolerance
        in
        let overrides =
          Option.bind (Minijson.member "tolerances" json) Minijson.to_obj
          |> Option.value ~default:[]
          |> List.filter_map (fun (k, v) ->
                 Option.map (fun f -> (k, f)) (Minijson.to_float v))
        in
        let entries_field =
          match Minijson.member "entries_ns" json with
          | Some o -> Some o
          | None -> Minijson.member "results_ns" json
        in
        match Option.bind entries_field Minijson.to_obj with
        | None -> Error "baseline has no entries_ns/results_ns object"
        | Some fields ->
            let entries =
              List.filter_map
                (fun (name, v) ->
                  Option.map
                    (fun ns ->
                      let tol =
                        Option.value
                          (List.assoc_opt name overrides)
                          ~default:default_tolerance
                      in
                      (name, ns, tol))
                    (Minijson.to_float v))
                fields
              |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
            in
            if entries = [] then Error "baseline has no numeric entries"
            else Ok { schema; default_tolerance; entries })

let load_baseline ?default_tolerance path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> parse_baseline ?default_tolerance text

let compare baseline measured =
  let measured_tbl = Hashtbl.create 64 in
  List.iter (fun (n, ns) -> Hashtbl.replace measured_tbl n ns) measured;
  let comparisons =
    List.filter_map
      (fun (name, baseline_ns, tolerance) ->
        match Hashtbl.find_opt measured_tbl name with
        | None -> None
        | Some measured_ns ->
            let ratio =
              if baseline_ns > 0. then measured_ns /. baseline_ns else infinity
            in
            let status =
              if measured_ns > baseline_ns *. (1. +. tolerance) then Regression
              else if ratio < 0.5 then Improvement
              else Pass
            in
            Some { name; baseline_ns; measured_ns; tolerance; ratio; status })
      baseline.entries
  in
  let missing =
    List.filter_map
      (fun (name, _, _) ->
        if Hashtbl.mem measured_tbl name then None else Some name)
      baseline.entries
  in
  let baseline_names =
    List.map (fun (n, _, _) -> n) baseline.entries
  in
  let unbaselined =
    List.filter (fun (n, _) -> not (List.mem n baseline_names)) measured
    |> List.map fst
    |> List.sort String.compare
  in
  let failed = List.exists (fun c -> c.status = Regression) comparisons in
  { comparisons; missing; unbaselined; failed }

let fmt_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let render outcome =
  let b = Buffer.create 2048 in
  Buffer.add_string b "== bench --check: measured vs baseline ==\n";
  List.iter
    (fun c ->
      let mark =
        match c.status with
        | Regression -> "REGRESSION"
        | Improvement -> "improved"
        | Pass -> "ok"
      in
      Buffer.add_string b
        (Printf.sprintf "  %-44s %10s vs %10s  %5.2fx (allowed %.2fx)  %s\n"
           c.name (fmt_ns c.measured_ns) (fmt_ns c.baseline_ns) c.ratio
           (1. +. c.tolerance) mark))
    outcome.comparisons;
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  note: baseline entry %S not measured this run\n" n))
    outcome.missing;
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  note: measured entry %S has no baseline\n" n))
    outcome.unbaselined;
  let n_reg =
    List.length
      (List.filter (fun c -> c.status = Regression) outcome.comparisons)
  in
  Buffer.add_string b
    (if outcome.failed then
       Printf.sprintf "FAIL: %d of %d compared entries regressed beyond tolerance\n"
         n_reg
         (List.length outcome.comparisons)
     else
       Printf.sprintf "PASS: %d compared entries within tolerance\n"
         (List.length outcome.comparisons));
  Buffer.contents b
