(* Extension: the next GPU generation the paper anticipates.  Section 3.2:
   "the parallelism is increasing; the next generation from NVIDIA
   contained 24 pipelines, and that number is growing."  We rerun Fig. 7's
   sweep on a G80-class configuration (128 unified scalar ALUs at
   1.35 GHz, higher achieved efficiency) and measure how far the headline
   6x would have moved within a year of the paper. *)

module Table = Sim_util.Table
module Gpu = Mdports.Gpu_port

let run ctx =
  let scale = Context.scale ctx in
  let steps = scale.Context.steps in
  let sizes = scale.Context.gpu_sweep in
  let rows =
    List.map
      (fun n ->
        let system = Context.system_of ctx ~n in
        let old_gpu = Context.gpu_seconds_of ctx ~n in
        (* The N² shader, as in the 7900GTX and Opteron baselines. *)
        let next =
          (Gpu.run ~steps ~machine:Gpustream.Config.geforce_8800_like
             ~force_path:Mdports.Force_path.brute system)
            .Mdports.Run_result.seconds
        in
        let opteron = Context.opteron_seconds_of ctx ~n in
        (n, opteron, old_gpu, next))
      sizes
  in
  let t =
    Table.create
      ~headers:
        [ "Atoms"; "Opteron (s)"; "7900GTX (s)"; "G80-like (s)";
          "G80 vs Opteron" ]
  in
  List.iter
    (fun (n, opt, old_gpu, next) ->
      Table.add_row t
        [ string_of_int n; Table.fmt_sig4 opt; Table.fmt_sig4 old_gpu;
          Table.fmt_sig4 next; Printf.sprintf "%.1fx" (opt /. next) ])
    rows;
  let _, top_opt, top_old, top_next = List.nth rows (List.length rows - 1) in
  { Experiment.id = "ext-gpu-next";
    title = "Extension: the next GPU generation (G80-class) on Fig. 7";
    table = t;
    checks =
      [ Experiment.check_pred ~name:"newer part faster at every size"
          ~detail:"more, faster ALUs; same bus overheads"
          (List.for_all (fun (_, _, o, n) -> n <= o +. 1e-12) rows);
        Experiment.check_pred
          ~name:"compute-bound gap is large at the top of the sweep"
          ~detail:
            (Printf.sprintf "at the largest size: %.2fx over the 7900GTX"
               (top_old /. top_next))
          (top_old /. top_next > 4.0);
        Experiment.check_pred
          ~name:"the paper's 6x grows well past 10x"
          ~detail:
            (Printf.sprintf "G80-like vs Opteron at the top: %.1fx"
               (top_opt /. top_next))
          (top_opt /. top_next > 10.0) ];
    figure = None;
    notes =
      [ "Per-step bus costs barely change between generations, so the \
         small-N crossover stays; the compute-bound regime is where the \
         generational gains land — consistent with how GPGPU history \
         actually unfolded." ];
    virtual_seconds =
      List.concat_map
        (fun (n, _, old_gpu, next) ->
          [ (Printf.sprintf "gpu-7900gtx/%d" n, old_gpu);
            (Printf.sprintf "gpu-g80/%d" n, next) ])
        rows }

let experiment =
  { Experiment.id = "ext-gpu-next";
    title = "Extension: next-generation GPU projection";
    paper_ref = "Section 3.2 (growing parallelism)";
    run }
