module Machine = Mta.Machine
module Ledger = Mta.Ledger
module Loop = Mta.Loop

type mode = Fully_multithreaded | Partially_multithreaded

let mode_name = function
  | Fully_multithreaded -> "fully multithreaded"
  | Partially_multithreaded -> "partially multithreaded"

let pair_loop mode =
  Loop.make ~name:"step2-acceleration" ~body:Kernels.mta_pair_body
    ~carries_dependency:true
    ~pragma_no_dependence:(mode = Fully_multithreaded)
    ()

let hit_loop mode =
  Loop.make ~name:"step2-interaction" ~body:Kernels.mta_hit_body
    ~carries_dependency:true
    ~pragma_no_dependence:(mode = Fully_multithreaded)
    ()

let integration_loop =
  (* "The rest of the kernel is parallelized by the MTA compiler without
     any code modification." *)
  Loop.make ~name:"integration" ~body:Kernels.mta_integration_body ()

let run ?(steps = 10) ?(mode = Fully_multithreaded)
    ?(machine = Mta.Config.mta2 ()) ?(force_path = Force_path.default) system =
  let s = Mdcore.System.copy system in
  let n = s.Mdcore.System.n in
  let m = Machine.create machine in
  let pairs_total = ref 0 and hits_total = ref 0 in
  let invocations = ref 0 in
  let pl = Force_path.resolve force_path s in
  let rebuild_pairs = ref 0 in
  let row_hits = Array.make n 0 in
  let engine =
    Mdcore.Engine.make ~name:"mta" ~compute:(fun sys ->
        incr invocations;
        (* With the pairlist, the iteration space each stream pulls from
           is the stored neighbour rows, not the full N² sweep; rebuild
           steps stream the build's candidate scan first. *)
        let pairs, partners =
          match pl with
          | None -> (n * (n - 1), Mdcore.Pairlist.All n)
          | Some pl ->
            if Mdcore.Pairlist.refresh pl then begin
              let scanned = Mdcore.Pairlist.last_build_scanned pl in
              Machine.charged_region m ~loop:(pair_loop mode) ~n:scanned
                ~f:(fun () -> ());
              rebuild_pairs := !rebuild_pairs + scanned;
              pairs_total := !pairs_total + scanned
            end;
            ( Mdcore.Pairlist.full_entry_count pl,
              Mdcore.Pairlist.Rows (Mdcore.Pairlist.full_rows pl) )
        in
        (* In the fully multithreaded version the PE reduction lives
           inside the loop body as a full/empty-bit accumulate; each
           interaction performs one synchronized update, a readfe then a
           writeef of the accumulator: two sync operations. *)
        let pe, hits =
          Machine.charged_region m ~loop:(pair_loop mode) ~n:pairs
            ~f:(fun () ->
              let pe, hits = Mdcore.Pairlist.gather sys partners ~row_hits in
              if mode = Fully_multithreaded then
                Machine.charge_sync_ops m (2 * hits);
              (pe, hits))
        in
        Machine.charged_region m ~loop:(hit_loop mode) ~n:hits
          ~f:(fun () -> ());
        pairs_total := !pairs_total + pairs;
        hits_total := !hits_total + hits;
        pe)
  in
  let records = Mdcore.Verlet.run s ~engine ~steps ~max_step_retries:(Mdfault.step_retries ()) () in
  Machine.charged_region m ~loop:integration_loop ~n:(steps * n)
    ~f:(fun () -> ());
  let ledger = Machine.ledger m in
  (* Port-level virtual PMU summary (feeds derived mta/mflops). *)
  if Mdprof.enabled () then begin
    let c ?unit_ name = Mdprof.counter ?unit_ ~clock:Mdprof.Virtual name in
    let flops =
      (!pairs_total * Isa.Block.flops Kernels.mta_pair_body)
      + (!hits_total * Isa.Block.flops Kernels.mta_hit_body)
      + (steps * n * Isa.Block.flops Kernels.mta_integration_body)
    in
    Mdprof.add_f (c ~unit_:"s" "mta/virtual_seconds") (Machine.time m);
    Mdprof.add (c ~unit_:"flops" "mta/flops") flops;
    if Option.is_some pl then
      Mdprof.add
        (c ~unit_:"pairs" "mta/pairlist_rebuild_pairs")
        !rebuild_pairs
  end;
  { Run_result.device =
      Printf.sprintf "Cray MTA-2 (%s%s)" (mode_name mode)
        (if Option.is_some pl then ", pairlist" else "");
    n_atoms = n;
    steps;
    seconds = Machine.time m;
    records;
    breakdown =
      List.map
        (fun cat -> (Ledger.category_name cat, Ledger.get ledger cat))
        Ledger.all_categories;
    pairs_evaluated = !pairs_total;
    interactions = !hits_total;
    final_system = Some s }
