(* Extension: the Cray XMT projection (the paper's Section 6: "We
   anticipate significant performance gains from the upcoming XMT
   technology, however" — with the caveat from Section 3.3 that the XMT
   "will not have the MTA-2's nearly uniform memory access latency").

   We run the fully-multithreaded kernel on the MTA-2 model and on
   XMT-like configurations (faster clock, non-uniform memory penalty,
   more processors) and report where the anticipated gains land. *)

module Table = Sim_util.Table
module Port = Mdports.Mta_port
module Mta_config = Mta.Config

let run ctx =
  let scale = Context.scale ctx in
  let system = Context.system ctx in
  let steps = scale.Context.steps in
  (* The N² kernel, as in its Opteron baseline ([Context.opteron]). *)
  let seconds machine =
    (Port.run ~steps ~machine ~force_path:Mdports.Force_path.brute system)
      .Mdports.Run_result.seconds
  in
  let mta2 = seconds (Mta_config.mta2 ()) in
  let configs =
    [ (1, Mta_config.xmt_like ~n_procs:1 ());
      (4, Mta_config.xmt_like ~n_procs:4 ());
      (16, Mta_config.xmt_like ~n_procs:16 ());
      (64, Mta_config.xmt_like ~n_procs:64 ()) ]
  in
  let xmt = List.map (fun (p, cfg) -> (p, seconds cfg)) configs in
  let opteron = (Context.opteron ctx).Mdports.Run_result.seconds in
  let t =
    Table.create
      ~headers:[ "System"; "Runtime (s)"; "vs MTA-2"; "vs Opteron" ]
  in
  Table.add_row t
    [ "MTA-2, 1 proc"; Table.fmt_sig4 mta2; "1.00x";
      Printf.sprintf "%.2fx" (opteron /. mta2) ];
  List.iter
    (fun (p, s) ->
      Table.add_row t
        [ Printf.sprintf "XMT-like, %d proc%s" p (if p = 1 then "" else "s");
          Table.fmt_sig4 s;
          Printf.sprintf "%.2fx" (mta2 /. s);
          Printf.sprintf "%.2fx" (opteron /. s) ])
    xmt;
  let xmt1 = List.assoc 1 xmt in
  let xmt64 = List.assoc 64 xmt in
  { Experiment.id = "ext-xmt";
    title =
      Printf.sprintf "Extension: XMT projection (%d atoms, %d steps)"
        scale.Context.atoms steps;
    table = t;
    checks =
      [ Experiment.check_pred
          ~name:"one XMT processor beats one MTA-2 processor"
          ~detail:
            (Printf.sprintf
               "faster clock outweighs the non-uniform memory penalty: \
                %.2f s vs %.2f s"
               xmt1 mta2)
          (xmt1 < mta2);
        Experiment.check_pred ~name:"XMT scales across processors"
          ~detail:
            (Printf.sprintf "64 procs are %.0fx one proc" (xmt1 /. xmt64))
          (xmt1 /. xmt64 > 30.0);
        Experiment.check_pred
          ~name:"a modest XMT overtakes the Opteron (the paper's \
                 anticipation)"
          ~detail:
            (Printf.sprintf "64-proc XMT vs Opteron: %.1fx"
               (opteron /. xmt64))
          (xmt64 < opteron) ];
    figure = None;
    notes =
      [ "XMT-like model: 500 MHz clock, 128 streams, 1.6x memory-latency \
         penalty for remote references (no more uniform latency), up to \
         8000 processors in the announced design." ];
    virtual_seconds =
      ("mta2", mta2)
      :: List.map
           (fun (p, s) -> (Printf.sprintf "xmt/%d" p, s))
           xmt }

let experiment =
  { Experiment.id = "ext-xmt";
    title = "Extension: Cray XMT projection";
    paper_ref = "Sections 3.3 and 6 (future plans)";
    run }
