(* Fig. 9: "Increase in runtime with respect to simulation run with 256
   atoms" — the MTA-2's runtime grows exactly with the N^2 pair count
   (uniform memory latency, no caches), while the Opteron grows faster
   once the arrays outgrow its caches. *)

module Table = Sim_util.Table
module Mta = Mdports.Mta_port

let pairs n = float_of_int (n * (n - 1))

let run ctx =
  let scale = Context.scale ctx in
  let sweep = scale.Context.mta_sweep in
  let base_n = List.hd sweep in
  let base_mta =
    Context.mta_seconds_of ctx ~mode:Mta.Fully_multithreaded ~n:base_n
  in
  let base_opt = Context.opteron_seconds_of ctx ~n:base_n in
  let rows =
    List.map
      (fun n ->
        let mta_inc =
          Context.mta_seconds_of ctx ~mode:Mta.Fully_multithreaded ~n
          /. base_mta
        in
        let opt_inc = Context.opteron_seconds_of ctx ~n /. base_opt in
        let flops_inc = pairs n /. pairs base_n in
        (n, mta_inc, opt_inc, flops_inc))
      sweep
  in
  let t =
    Table.create
      ~headers:
        [ "Atoms"; "MTA increase"; "Opteron increase"; "Pair-count increase" ]
  in
  List.iter
    (fun (n, mta_inc, opt_inc, flops_inc) ->
      Table.add_row t
        [ string_of_int n;
          Printf.sprintf "%.1fx" mta_inc;
          Printf.sprintf "%.1fx" opt_inc;
          Printf.sprintf "%.1fx" flops_inc ])
    rows;
  let _, top_mta, top_opt, _ = List.nth rows (List.length rows - 1) in
  let mta_tracks_flops =
    List.for_all
      (fun (_, mta_inc, _, flops_inc) ->
        Sim_util.Stats.relative_error ~expected:flops_inc ~actual:mta_inc
        <= Paper_data.mta_increase_tolerance)
      rows
  in
  (* The cutoff is fixed while N grows, so the interacting fraction (and
     with it the per-pair cost mix) shifts between the smallest sizes on
     every device; the cache signature is that the Opteron's excess over
     the MTA peaks at the largest size.  There the three position arrays
     (96 KB) have outgrown the 64 KB L1, and at 4096 atoms each spans
     32 KB, one way of the 2-way L1, so x[j], y[j] and z[j] map to one
     set and every access misses L1: set conflicts, not capacity, set
     the top point. *)
  let excess_peaks_at_top =
    let excesses = List.map (fun (_, m, o, _) -> o /. m) rows in
    let top = List.nth excesses (List.length excesses - 1) in
    List.for_all (fun e -> top >= e -. 1e-9) excesses
  in
  { Experiment.id = "fig9";
    title =
      Printf.sprintf "Fig. 9: runtime growth relative to %d atoms" base_n;
    table = t;
    checks =
      [ Experiment.check_pred
          ~name:"MTA increase proportional to the flop count"
          ~detail:
            (Printf.sprintf "within %.0f%% of the pair-count ratio at all \
                             sizes"
               (100.0 *. Paper_data.mta_increase_tolerance))
          mta_tracks_flops;
        Experiment.check_pred
          ~name:"Opteron increases at a relatively faster rate"
          ~detail:
            (Printf.sprintf "at the top of the sweep: Opteron %.1fx vs MTA \
                             %.1fx"
               top_opt top_mta)
          (top_opt >= top_mta *. Paper_data.opteron_increase_excess_min);
        Experiment.check_pred ~name:"cache effect peaks at the largest size"
          ~detail:"Opteron/MTA increase ratio is maximal at the top of the \
                   sweep"
          excess_peaks_at_top ];
    figure =
      Some
        (Sim_util.Chart.plot ~logx:true ~logy:true ~x_label:"atoms"
           ~y_label:"runtime increase vs baseline"
           [ { Sim_util.Chart.name = "MTA-2";
               points =
                 List.map (fun (n, m, _, _) -> (float_of_int n, m)) rows };
             { Sim_util.Chart.name = "Opteron";
               points =
                 List.map (fun (n, _, o, _) -> (float_of_int n, o)) rows };
             { Sim_util.Chart.name = "pure pair count";
               points =
                 List.map (fun (n, _, _, f) -> (float_of_int n, f)) rows } ]);
    notes =
      [ "The Opteron's excess over the pure N^2 line is produced by the \
         cache simulator (L1 capacity exceeded by the position arrays), \
         not by a fitted curve." ];
    virtual_seconds =
      List.concat_map
        (fun (n, mta_inc, opt_inc, _) ->
          [ (Printf.sprintf "mta/%d" n, base_mta *. mta_inc);
            (Printf.sprintf "opteron/%d" n, base_opt *. opt_inc) ])
        rows }

let experiment =
  { Experiment.id = "fig9";
    title = "Fig. 9: workload scaling, MTA-2 vs Opteron";
    paper_ref = "Section 5.3, Figure 9";
    run }
