type t = {
  device : string;
  n_atoms : int;
  steps : int;
  seconds : float;
  records : Mdcore.Verlet.step_record list;
  breakdown : (string * float) list;
  pairs_evaluated : int;
  interactions : int;
  final_system : Mdcore.System.t option;
}

let final_total_energy t =
  match List.rev t.records with
  | [] -> invalid_arg "Run_result.final_total_energy: no records"
  | last :: _ -> last.Mdcore.Verlet.total_energy

let energy_drift t =
  match t.records with
  | [] -> invalid_arg "Run_result.energy_drift: no records"
  | first :: _ ->
    let e0 = first.Mdcore.Verlet.total_energy in
    let e1 = final_total_energy t in
    if e0 = 0.0 then abs_float (e1 -. e0) else abs_float ((e1 -. e0) /. e0)

let breakdown_get t name =
  match List.assoc_opt name t.breakdown with Some v -> v | None -> 0.0

let pp_summary fmt t =
  Format.fprintf fmt "%s: %d atoms, %d steps, %.4f s (%d pairs, %d hits)"
    t.device t.n_atoms t.steps t.seconds t.pairs_evaluated t.interactions

(* The human-readable run report and the machine-readable metrics JSON
   live here — not in bin/mdsim — so every producer of a run (the CLI,
   the serve daemon's per-job report files) emits byte-identical
   artifacts for the same result.  Byte equality of these renderings is
   the serve convergence acceptance bar, so change them carefully. *)

let render_summary t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Format.asprintf "%a" pp_summary t);
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      if v > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-10s %s\n" k (Sim_util.Table.fmt_seconds v)))
    t.breakdown;
  (match (List.rev t.records, t.records) with
  | last :: _, first :: _ ->
    Buffer.add_string buf
      (Printf.sprintf
         "  energy: initial %.4f, final %.4f (drift %.2e); final T %.4f\n"
         first.Mdcore.Verlet.total_energy last.Mdcore.Verlet.total_energy
         (energy_drift t) last.Mdcore.Verlet.temperature)
  | _ -> ());
  Buffer.add_string buf
    (Printf.sprintf "  virtual runtime: %s\n"
       (Sim_util.Table.fmt_seconds t.seconds));
  Buffer.contents buf

let metrics_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\"device\":\"%s\",\"atoms\":%d,\"steps\":%d,\"virtual_seconds\":%.17g,\n"
       (Mdobs.json_escape t.device) t.n_atoms t.steps t.seconds);
  Buffer.add_string buf "\"breakdown\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%.17g" (Mdobs.json_escape k) v))
    t.breakdown;
  Buffer.add_string buf
    (Printf.sprintf
       "},\n\"pairs_evaluated\":%d,\"interactions\":%d,\"energy_drift\":%.17g\n}\n"
       t.pairs_evaluated t.interactions (energy_drift t));
  Buffer.contents buf
