(* Extension: double precision on the Cell (the paper's Section 6 open
   issue — "the outstanding issues are the availability and support for
   double-precision floating-point calculations").  The first-generation
   SPE's DP unit is 2-wide and unpipelined (every DP instruction stalls
   issue for six extra cycles); this experiment quantifies what the
   paper's single-precision 5x would have become in double. *)

module Table = Sim_util.Table
module Cell = Mdports.Cell_port

let run ctx =
  let scale = Context.scale ctx in
  let opteron = Context.opteron ctx in
  let sp = Cell.time_with (Context.cell_profile ctx) Cell.default_config in
  let dp_profile =
    Cell.profile_run ~steps:scale.Context.steps ~precision:Cell.Double
      ~force_path:Mdports.Force_path.brute (Context.system ctx)
  in
  let dp = Cell.time_with dp_profile Cell.default_config in
  let t =
    Table.create ~headers:[ "Configuration"; "Runtime (s)"; "vs Opteron" ]
  in
  let opt_s = opteron.Mdports.Run_result.seconds in
  let row label (r : Mdports.Run_result.t) =
    Table.add_row t
      [ label;
        Table.fmt_sig4 r.Mdports.Run_result.seconds;
        Printf.sprintf "%.2fx" (opt_s /. r.Mdports.Run_result.seconds) ]
  in
  row "Opteron (double)" opteron;
  row "Cell, 8 SPEs, single (paper)" sp;
  row "Cell, 8 SPEs, double (what-if)" dp;
  let sp_s = sp.Mdports.Run_result.seconds
  and dp_s = dp.Mdports.Run_result.seconds in
  { Experiment.id = "ext-precision";
    title =
      Printf.sprintf
        "Extension: single vs double precision on the Cell (%d atoms)"
        scale.Context.atoms;
    table = t;
    checks =
      [ Experiment.check_pred ~name:"DP measurably slower than SP on the SPE"
          ~detail:
            (Printf.sprintf "SP %.3f s vs DP %.3f s (%.2fx)" sp_s dp_s
               (dp_s /. sp_s))
          (dp_s /. sp_s > 1.25 && dp_s /. sp_s < 10.0);
        Experiment.check_pred
          ~name:"DP Cell loses a chunk of its advantage over the Opteron"
          ~detail:
            (Printf.sprintf "SP %.1fx vs DP %.1fx over the Opteron"
               (opt_s /. sp_s) (opt_s /. dp_s))
          (opt_s /. dp_s < 0.8 *. (opt_s /. sp_s));
        (let sp_tp =
           float_of_int
             (Isa.Spe_pipe.throughput_cycles
                (Mdports.Kernels.spe_base
                   Mdports.Cell_variant.Simd_acceleration))
         in
         let dp_tp =
           float_of_int
             (Isa.Spe_pipe.throughput_cycles Mdports.Kernels.spe_base_dp)
         in
         Experiment.check_pred
           ~name:"the throughput-bound DP gap is large"
           ~detail:
             (Printf.sprintf
                "issue-bandwidth bound: SP %.0f vs DP %.0f cycles/pair \
                 (%.1fx) — what a software-pipelined kernel would see"
                sp_tp dp_tp (dp_tp /. sp_tp))
           (dp_tp /. sp_tp > 3.0)) ];
    figure = None;
    notes =
      [ "The DP slowdown is produced by the SPE pipeline model: DP \
         instructions have 13-cycle latency and stall all issue for 6 \
         extra cycles (the unpipelined first-generation DP unit), and DMA \
         traffic doubles.";
        "The end-to-end gap (~1.4x) is smaller than the 14x peak-FLOPS \
         ratio because the un-software-pipelined kernel is dependence- \
         latency-bound, which hides issue stalls; the throughput-bound \
         check shows the gap a pipelined kernel would expose." ];
    virtual_seconds =
      [ ("opteron", opt_s);
        ("cell-8spe-single", sp_s);
        ("cell-8spe-double", dp_s) ] }

let experiment =
  { Experiment.id = "ext-precision";
    title = "Extension: Cell double-precision what-if";
    paper_ref = "Section 6 (outstanding issues)";
    run }
