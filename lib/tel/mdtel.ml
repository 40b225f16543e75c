module Verlet = Mdcore.Verlet
module System = Mdcore.System
module Params = Mdcore.Params
module Observables = Mdcore.Observables
module Minijson = Sim_util.Minijson
module Bench_check = Sim_util.Bench_check

let schema = "mdsim-telemetry-v1"
let default_stall_s = 5.0

type config = {
  tel_path : string option;
  tel_every : int;
  tel_total_steps : int;
  tel_progress : bool;
  tel_deadline : float option;
  tel_stall_s : float;
  tel_resume : bool;
}

type state = {
  cfg : config;
  mutable chan : Mdio.t option;
  mutable pending : (int * string) list; (* newest first *)
  mutable buffered : bool;
  mutable base : int;
  mutable seg_end : int; (* current segment's final global step; -1 = none *)
  mutable total : int;
  mutable last_sample : int; (* last sampled global step; -1 = none *)
  mutable last_seen : (int * Verlet.step_record * System.t) option;
  mutable interval : Mdprof.Interval.t;
  prof_was_enabled : bool;
  mutable suspended : int;
  t0 : float;
  mutable last_step_host : float;
  mutable last_sample_host : float;
  mutable last_sample_step : int;
  mutable last_render_host : float;
  mutable window_step : int;
  mutable window_host : float;
  mutable rate : float;
  mutable first_energy : float option;
  mutable obs_track : Mdobs.track option;
  progress_tty : bool;
}

let current : state option ref = ref None
let active () = !current <> None

(* ------------------------------------------------------------------ *)
(* Stream plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* Stream writes go through the Mdio shim on an unbuffered descriptor:
   one shimmed write per line, which is exactly the old per-line
   write+flush durability — and makes every telemetry append a counted
   crash point and a storage-fault site. *)
let open_stream st ~truncate =
  match st.cfg.tel_path with
  | None -> ()
  | Some path -> st.chan <- Some (Mdio.openw ~append:(not truncate) path)

let close_stream st =
  match st.chan with
  | Some wr ->
    Mdio.close_noerr wr;
    st.chan <- None
  | None -> ()

let write_line wr line = Mdio.write wr (line ^ "\n")

let push st ~step line =
  if st.buffered then st.pending <- (step, line) :: st.pending
  else
    match st.chan with
    | Some wr -> write_line wr line
    | None -> ()

let flush_pending st =
  (match st.chan with
  | Some wr ->
    List.iter (fun (_, line) -> write_line wr line) (List.rev st.pending)
  | None -> ());
  st.pending <- []

(* ------------------------------------------------------------------ *)
(* Record emission                                                     *)
(* ------------------------------------------------------------------ *)

let counters_fields deltas =
  let b = Buffer.create 256 in
  let first = ref true in
  let emit name value =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b (Mdobs.json_string name);
    Buffer.add_char b ':';
    Buffer.add_string b (Mdobs.json_float value)
  in
  List.iter
    (fun (s : Mdprof.sample) ->
      match s.Mdprof.s_kind with
      | Mdprof.Counter | Mdprof.Gauge -> emit s.Mdprof.s_name s.Mdprof.s_value
      | Mdprof.Histogram ->
        emit (s.Mdprof.s_name ^ "/observations")
          (float_of_int s.Mdprof.s_observations);
        emit (s.Mdprof.s_name ^ "/sum") s.Mdprof.s_sum)
    deltas;
  Buffer.contents b

let derived_fields deltas =
  let b = Buffer.create 128 in
  List.iteri
    (fun i (name, value, _unit) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Mdobs.json_string name);
      Buffer.add_char b ':';
      Buffer.add_string b (Mdobs.json_float value))
    (Mdprof.derived_of_samples deltas);
  Buffer.contents b

let obs_events st ~g ~ts (r : Verlet.step_record) =
  if Mdobs.enabled () then begin
    let tr =
      match st.obs_track with
      | Some t -> t
      | None ->
        let t = Mdobs.new_track ~clock:Mdobs.Virtual "telemetry" in
        st.obs_track <- Some t;
        t
    in
    Mdobs.instant tr ~name:"telemetry/sample" ~ts
      ~args:[ ("step", Mdobs.Int g) ]
      ();
    Mdobs.counter tr ~name:"telemetry/total_energy" ~ts r.Verlet.total_energy;
    Mdobs.counter tr ~name:"telemetry/temperature" ~ts r.Verlet.temperature
  end

(* One sample line.  Field order is fixed and the host object is always
   last: [virtual_projection] relies on both. *)
let emit_sample st ~now =
  match (st.cfg.tel_path, st.last_seen) with
  | None, _ | _, None -> ()
  | Some _, Some (g, r, sys) ->
    if g > st.last_sample then begin
      (* Segment records carry segment-local sim_time; rebase onto the
         global step with the same [step * dt] formula Verlet uses so
         segmented and straight runs print identical bytes. *)
      let sim_time = float_of_int g *. sys.System.params.Params.dt in
      let p = Observables.total_momentum sys in
      let deltas = Mdprof.Interval.read st.interval in
      let rebuilds =
        match
          List.find_opt
            (fun (s : Mdprof.sample) -> s.Mdprof.s_name = "pairlist/builds")
            deltas
        with
        | Some s -> s.Mdprof.s_value
        | None -> 0.0
      in
      let fs = Mdfault.summary () in
      let steps_per_s =
        if st.last_sample_step >= 0 && now > st.last_sample_host then
          float_of_int (g - st.last_sample_step)
          /. (now -. st.last_sample_host)
        else 0.0
      in
      let line =
        Printf.sprintf
          "{\"schema\":%s,\"type\":\"sample\",\"step\":%d,\"sim_time\":%s,\"energy\":{\"pe\":%s,\"ke\":%s,\"total\":%s,\"temperature\":%s},\"momentum\":[%s,%s,%s],\"faults\":{\"injected\":%d,\"recovered\":%d},\"guard_restores\":%d,\"rebuilds\":%s,\"counters\":{%s},\"derived\":{%s},\"host\":{\"unix\":%s,\"elapsed_s\":%s,\"steps_per_s\":%s}}"
          (Mdobs.json_string schema) g (Mdobs.json_float sim_time)
          (Mdobs.json_float r.Verlet.pe)
          (Mdobs.json_float r.Verlet.ke)
          (Mdobs.json_float r.Verlet.total_energy)
          (Mdobs.json_float r.Verlet.temperature)
          (Mdobs.json_float p.Vecmath.Vec3.x)
          (Mdobs.json_float p.Vecmath.Vec3.y)
          (Mdobs.json_float p.Vecmath.Vec3.z)
          fs.Mdfault.injected fs.Mdfault.recoveries
          (Mdfault.guard_restores ())
          (Mdobs.json_float rebuilds)
          (counters_fields deltas) (derived_fields deltas)
          (Mdobs.json_float now)
          (Mdobs.json_float (now -. st.t0))
          (Mdobs.json_float steps_per_s)
      in
      push st ~step:g line;
      st.last_sample <- g;
      st.last_sample_step <- g;
      st.last_sample_host <- now;
      if st.first_energy = None then
        st.first_energy <- Some r.Verlet.total_energy;
      obs_events st ~g ~ts:sim_time r
    end

let alert_kind reason =
  let contains sub =
    let n = String.length sub and m = String.length reason in
    let rec go i = i + n <= m && (String.sub reason i n = sub || go (i + 1)) in
    go 0
  in
  if contains "energy jump" then "energy_jump"
  else if contains "momentum drift" then "momentum_drift"
  else if contains "non-finite" then "non_finite"
  else "invariant"

let emit_alert st ~g ~kind ~clock ~detail ~now =
  if st.cfg.tel_path <> None then begin
    let line =
      Printf.sprintf
        "{\"schema\":%s,\"type\":\"alert\",\"kind\":%s,\"clock\":%s,\"step\":%d,\"detail\":%s,\"host\":{\"unix\":%s}}"
        (Mdobs.json_string schema) (Mdobs.json_string kind)
        (Mdobs.json_string clock) g (Mdobs.json_string detail)
        (Mdobs.json_float now)
    in
    push st ~step:g line;
    if clock = "virtual" && Mdobs.enabled () then
      match st.obs_track with
      | Some tr ->
        Mdobs.instant tr ~name:"telemetry/alert"
          ~ts:(match st.last_seen with
              | Some (_, _, sys) ->
                float_of_int g *. sys.System.params.Params.dt
              | None -> 0.0)
          ~args:[ ("kind", Mdobs.Str kind); ("step", Mdobs.Int g) ]
          ()
      | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Progress line                                                       *)
(* ------------------------------------------------------------------ *)

let fmt_eta seconds =
  if Float.is_nan seconds then "?"
  else if seconds >= 3600. then
    Printf.sprintf "%dh%02dm"
      (int_of_float seconds / 3600)
      (int_of_float seconds mod 3600 / 60)
  else if seconds >= 60. then
    Printf.sprintf "%dm%02ds"
      (int_of_float seconds / 60)
      (int_of_float seconds mod 60)
  else Printf.sprintf "%.0fs" seconds

let render_progress st ~g ~now ~final =
  let wdt = now -. st.window_host in
  if (wdt > 0.5 || final) && g > st.window_step && wdt > 0. then begin
    st.rate <- float_of_int (g - st.window_step) /. wdt;
    st.window_step <- g;
    st.window_host <- now
  end;
  let pct =
    if st.total > 0 then 100.0 *. float_of_int g /. float_of_int st.total
    else 0.0
  in
  let eta =
    if st.rate > 0. && st.total > g then
      float_of_int (st.total - g) /. st.rate
    else nan
  in
  let eta_s =
    match st.cfg.tel_deadline with
    | Some d ->
      let left = d -. (now -. st.t0) in
      Printf.sprintf "ETA %s (budget %s)" (fmt_eta eta)
        (fmt_eta (Float.max 0. left))
      ^ (if (not (Float.is_nan eta)) && eta > left then " OVER" else "")
    | None -> Printf.sprintf "ETA %s" (fmt_eta eta)
  in
  let drift =
    match (st.first_energy, st.last_seen) with
    | Some e0, Some (_, r, _) ->
      Printf.sprintf "drift %.1e"
        (abs_float (r.Verlet.total_energy -. e0)
        /. Float.max 1.0 (abs_float e0))
    | _ -> "drift -"
  in
  let fs = Mdfault.summary () in
  Printf.eprintf "\rstep %d/%d (%.1f%%)  %.1f steps/s  %s  %s  faults %d/%d  guard %d\027[K%!"
    g st.total pct st.rate eta_s drift fs.Mdfault.injected
    fs.Mdfault.recoveries
    (Mdfault.guard_restores ());
  st.last_render_host <- now

(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)
(* ------------------------------------------------------------------ *)

let on_step st sys (r : Verlet.step_record) =
  if st.suspended = 0 then begin
    let g = st.base + r.Verlet.step in
    st.last_seen <- Some (g, r, sys);
    if st.first_energy = None then
      st.first_energy <- Some r.Verlet.total_energy;
    let now = Unix.gettimeofday () in
    if
      st.last_step_host > 0.
      && now -. st.last_step_host > st.cfg.tel_stall_s
    then
      emit_alert st ~g ~kind:"stall" ~clock:"host"
        ~detail:
          (Printf.sprintf "step %d took %.1fs (threshold %.1fs)" g
             (now -. st.last_step_host)
             st.cfg.tel_stall_s)
        ~now;
    st.last_step_host <- now;
    (* Segment-final and run-final steps are NOT sampled here: ports
       flush summary counters after their integration loop returns, so
       those samples are deferred to [sync] (segment boundaries) or
       [finish] (straight runs) to land after the flush — otherwise a
       resumed run's interval baselines would diverge from the
       uninterrupted run's. *)
    let deferred =
      (st.seg_end >= 0 && g >= st.seg_end) || (st.total > 0 && g >= st.total)
    in
    if g > st.last_sample && g mod st.cfg.tel_every = 0 && not deferred then
      emit_sample st ~now;
    if st.progress_tty && (now -. st.last_render_host > 0.25 || g >= st.total)
    then render_progress st ~g ~now ~final:(g >= st.total)
  end

let on_alert st ~step ~reason =
  if st.suspended = 0 then
    emit_alert st ~g:(st.base + step) ~kind:(alert_kind reason)
      ~clock:"virtual" ~detail:reason
      ~now:(Unix.gettimeofday ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let uninstall () =
  match !current with
  | None -> ()
  | Some st ->
    Verlet.set_step_listener None;
    Verlet.set_alert_listener None;
    flush_pending st;
    close_stream st;
    if st.cfg.tel_path <> None && not st.prof_was_enabled then
      Mdprof.disable ();
    current := None

let install cfg =
  if cfg.tel_every < 1 then
    invalid_arg "Mdtel.install: telemetry cadence must be >= 1 step";
  uninstall ();
  let prof_was_enabled = Mdprof.enabled () in
  (* Counter deltas need live cells, so streaming implies profiling
     (exactly like --counters; install before machines exist). *)
  if cfg.tel_path <> None then Mdprof.enable ();
  let now = Unix.gettimeofday () in
  let st =
    { cfg;
      chan = None;
      pending = [];
      buffered = false;
      base = 0;
      seg_end = -1;
      total = cfg.tel_total_steps;
      last_sample = -1;
      last_seen = None;
      interval = Mdprof.Interval.create ();
      prof_was_enabled;
      suspended = 0;
      t0 = now;
      last_step_host = 0.;
      last_sample_host = now;
      last_sample_step = -1;
      last_render_host = 0.;
      window_step = 0;
      window_host = now;
      rate = 0.;
      first_energy = None;
      obs_track = None;
      progress_tty =
        (cfg.tel_progress
        && (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false));
    }
  in
  if not cfg.tel_resume then open_stream st ~truncate:true;
  current := Some st;
  Verlet.set_step_listener (Some (fun s r -> on_step st s r));
  Verlet.set_alert_listener
    (Some (fun ~step ~reason -> on_alert st ~step ~reason))

let finish () =
  match !current with
  | None -> ()
  | Some st ->
    let now = Unix.gettimeofday () in
    emit_sample st ~now;
    if st.progress_tty then begin
      (match st.last_seen with
      | Some (g, _, _) -> render_progress st ~g ~now ~final:true
      | None -> ());
      Printf.eprintf "\n%!"
    end;
    uninstall ()

let with_suspended f =
  match !current with
  | None -> f ()
  | Some st ->
    st.suspended <- st.suspended + 1;
    Fun.protect ~finally:(fun () -> st.suspended <- st.suspended - 1) f

(* ------------------------------------------------------------------ *)
(* Segmented-runner protocol                                           *)
(* ------------------------------------------------------------------ *)

let set_total n = match !current with Some st -> st.total <- n | None -> ()

let set_buffered b =
  match !current with Some st -> st.buffered <- b | None -> ()

let set_segment ~base ~steps =
  match !current with
  | Some st ->
    st.base <- base;
    st.seg_end <- base + steps
  | None -> ()

let sync ~completed =
  match !current with
  | None -> ()
  | Some st ->
    (match st.last_seen with
    | Some (g, _, _) when g = completed && g > st.last_sample ->
      emit_sample st ~now:(Unix.gettimeofday ())
    | _ -> ());
    flush_pending st

let rollback ~to_ =
  match !current with
  | None -> ()
  | Some st ->
    st.pending <- List.filter (fun (step, _) -> step <= to_) st.pending;
    if st.last_sample > to_ then st.last_sample <- to_;
    if st.last_sample_step > to_ then st.last_sample_step <- to_

(* Keep records whose step is covered by the checkpoint being resumed;
   anything beyond it belongs to a lost segment that will re-execute.
   A resume at [completed = 0] restarts the first segment from
   [prepare], and the step-0 sample is taken *after* the gen-0 save (it
   includes the initial force evaluation), so the restored cells do not
   cover it: keep nothing and let the re-executed segment re-emit the
   whole stream, or the boundary sample's delta would double-count the
   initial evaluation. *)
let reconcile_file path ~completed =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> -1
  | content ->
    let kept = ref [] in
    let last_sample = ref (-1) in
    String.split_on_char '\n' content
    |> List.iter (fun line ->
           if String.trim line <> "" then
             match Minijson.parse line with
             | exception Minijson.Parse_error _ -> ()
             | j -> (
               match
                 Option.bind (Minijson.member "step" j) Minijson.to_float
               with
               | Some s when completed > 0 && int_of_float s <= completed ->
                 kept := line :: !kept;
                 if
                   Option.bind (Minijson.member "type" j) Minijson.to_string
                   = Some "sample"
                 then last_sample := max !last_sample (int_of_float s)
               | _ -> ()))
    |> ignore;
    let body = String.concat "\n" (List.rev !kept) in
    Mdio.write_atomic ~fsync_dir:false ~path
      (if body = "" then "" else body ^ "\n");
    !last_sample

let on_resume ~completed =
  match !current with
  | None -> ()
  | Some st ->
    st.base <- completed;
    (match st.cfg.tel_path with
    | Some path when Sys.file_exists path ->
      let last = reconcile_file path ~completed in
      st.last_sample <- last;
      st.last_sample_step <- last
    | _ -> ());
    open_stream st ~truncate:false;
    (* The checkpointed Mdprof cells were just restored: cumulative
       state now equals the last durable sample's, so a fresh baseline
       continues the delta sequence of the uninterrupted run. *)
    st.interval <- Mdprof.Interval.create ()

(* ------------------------------------------------------------------ *)
(* Per-job multiplexing                                                *)
(* ------------------------------------------------------------------ *)

(* The serve daemon interleaves segments of many jobs inside one
   process, but the telemetry singleton serves one run at a time.  The
   daemon therefore opens a job's stream around each of its segments:
   [open_job] goes through the resume path unconditionally — reconcile
   the file with the job's checkpointed step (a no-op for a fresh file),
   reopen in append mode, rebase the delta baseline on the just-restored
   Mdprof cells — so a job's stream grows exactly as a kill-9 + --resume
   sequence would grow a single-shot run's, and [close_job] flushes and
   releases the singleton for the next job's segment. *)
module Mux = struct
  let open_job ~path ~every ~total ~completed =
    install
      { tel_path = Some path;
        tel_every = every;
        tel_total_steps = total;
        tel_progress = false;
        tel_deadline = None;
        tel_stall_s = default_stall_s;
        tel_resume = true };
    on_resume ~completed;
    set_total total;
    set_buffered true

  let close_job () = uninstall ()
end

(* ------------------------------------------------------------------ *)
(* Stream analysis                                                     *)
(* ------------------------------------------------------------------ *)

let host_marker = ",\"host\":"

let contains_sub line sub =
  let n = String.length sub and m = String.length line in
  let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
  go 0

let find_sub line sub =
  let n = String.length sub and m = String.length line in
  let rec go i =
    if i + n > m then None
    else if String.sub line i n = sub then Some i
    else go (i + 1)
  in
  go 0

let virtual_projection content =
  let b = Buffer.create (String.length content) in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         if String.trim line <> "" then
           if contains_sub line "\"clock\":\"host\"" then ()
           else begin
             (match find_sub line host_marker with
             | Some i ->
               Buffer.add_string b (String.sub line 0 i);
               Buffer.add_char b '}'
             | None -> Buffer.add_string b line);
             Buffer.add_char b '\n'
           end);
  Buffer.contents b

type parsed_sample = {
  ps_step : int;
  ps_time : float;
  ps_total : float;
  ps_temp : float;
  ps_rebuilds : float;
  ps_rate : float;
}

let parse_stream content =
  let samples = ref [] in
  let alerts = ref [] in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Minijson.parse line with
           | exception Minijson.Parse_error _ -> ()
           | j ->
             let str k o = Option.bind (Minijson.member k o) Minijson.to_string in
             let num k o =
               Option.value ~default:0.0
                 (Option.bind (Minijson.member k o) Minijson.to_float)
             in
             (match str "type" j with
             | Some "sample" ->
               let energy =
                 Option.value ~default:(Minijson.Obj [])
                   (Minijson.member "energy" j)
               in
               let host =
                 Option.value ~default:(Minijson.Obj [])
                   (Minijson.member "host" j)
               in
               samples :=
                 { ps_step = int_of_float (num "step" j);
                   ps_time = num "sim_time" j;
                   ps_total = num "total" energy;
                   ps_temp = num "temperature" energy;
                   ps_rebuilds = num "rebuilds" j;
                   ps_rate = num "steps_per_s" host }
                 :: !samples
             | Some "alert" ->
               alerts :=
                 ( int_of_float (num "step" j),
                   Option.value ~default:"?" (str "kind" j) )
                 :: !alerts
             | _ -> ()))
  |> ignore;
  (List.rev !samples, List.rev !alerts)

let render_tail ?(limit = 12) content =
  let samples, alerts = parse_stream content in
  let b = Buffer.create 1024 in
  (match samples with
  | [] ->
    Buffer.add_string b "no telemetry samples\n";
    if alerts <> [] then
      Buffer.add_string b
        (Printf.sprintf "%d alert(s) present\n" (List.length alerts))
  | first :: _ ->
    let last = List.nth samples (List.length samples - 1) in
    Buffer.add_string b
      (Printf.sprintf "== mdsim telemetry: %d samples, steps %d..%d ==\n"
         (List.length samples) first.ps_step last.ps_step);
    let drift =
      abs_float (last.ps_total -. first.ps_total)
      /. Float.max 1.0 (abs_float first.ps_total)
    in
    Buffer.add_string b
      (Printf.sprintf
         "  energy: first %.6f, last %.6f (drift %.2e); final T %.4f\n"
         first.ps_total last.ps_total drift last.ps_temp);
    let rebuilds =
      List.fold_left (fun acc s -> acc +. s.ps_rebuilds) 0.0 samples
    in
    Buffer.add_string b
      (Printf.sprintf "  pairlist rebuilds: %.0f; alerts: %d\n" rebuilds
         (List.length alerts));
    (if alerts <> [] then
       let tbl = Hashtbl.create 8 in
       List.iter
         (fun (_, kind) ->
           Hashtbl.replace tbl kind
             (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind)))
         alerts;
       Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
       |> List.sort compare
       |> List.iter (fun (k, v) ->
              Buffer.add_string b (Printf.sprintf "    %4d x %s\n" v k)));
    Buffer.add_string b
      "\n  step        sim_time       E_total          temp  rebuilds   steps/s\n";
    let n = List.length samples in
    List.iteri
      (fun i s ->
        if i >= n - limit then
          Buffer.add_string b
            (Printf.sprintf "  %-8d %11.4f  %12.6f  %12.6f  %8.0f  %8.1f\n"
               s.ps_step s.ps_time s.ps_total s.ps_temp s.ps_rebuilds
               s.ps_rate))
      samples);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* report diff                                                         *)
(* ------------------------------------------------------------------ *)

let rows_of_counters_export j =
  let rows = ref [] in
  (match Option.bind (Minijson.member "counters" j) Minijson.to_list with
  | Some cs ->
    List.iter
      (fun c ->
        match
          ( Option.bind (Minijson.member "name" c) Minijson.to_string,
            Option.bind (Minijson.member "kind" c) Minijson.to_string )
        with
        | Some name, Some "histogram" ->
          (match
             Option.bind (Minijson.member "observations" c) Minijson.to_float
           with
          | Some o -> rows := (name ^ "/observations", o) :: !rows
          | None -> ());
          (match Option.bind (Minijson.member "sum" c) Minijson.to_float with
          | Some s -> rows := (name ^ "/sum", s) :: !rows
          | None -> ())
        | Some name, _ -> (
          match Option.bind (Minijson.member "value" c) Minijson.to_float with
          | Some v -> rows := (name, v) :: !rows
          | None -> ())
        | None, _ -> ())
      cs
  | None -> ());
  (match Option.bind (Minijson.member "derived" j) Minijson.to_list with
  | Some ds ->
    List.iter
      (fun d ->
        match
          ( Option.bind (Minijson.member "name" d) Minijson.to_string,
            Option.bind (Minijson.member "value" d) Minijson.to_float )
        with
        | Some name, Some v -> rows := ("derived/" ^ name, v) :: !rows
        | _ -> ())
      ds
  | None -> ());
  !rows

let rows_of_stream content =
  let totals : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let n_samples = ref 0 in
  let n_alerts = ref 0 in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Minijson.parse line with
           | exception Minijson.Parse_error _ -> ()
           | j -> (
             match
               Option.bind (Minijson.member "type" j) Minijson.to_string
             with
             | Some "sample" ->
               incr n_samples;
               (match
                  Option.bind (Minijson.member "counters" j) Minijson.to_obj
                with
               | Some fields ->
                 List.iter
                   (fun (name, v) ->
                     match Minijson.to_float v with
                     | Some x ->
                       Hashtbl.replace totals name
                         (x
                         +. Option.value ~default:0.0
                              (Hashtbl.find_opt totals name))
                     | None -> ())
                   fields
               | None -> ())
             | Some "alert" -> incr n_alerts
             | _ -> ()))
  |> ignore;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] in
  ("telemetry/samples", float_of_int !n_samples)
  :: ("telemetry/alerts", float_of_int !n_alerts)
  :: rows

let metric_rows content =
  let rows =
    match Minijson.parse content with
    | exception Minijson.Parse_error _ -> rows_of_stream content
    | j -> (
      match Option.bind (Minijson.member "schema" j) Minijson.to_string with
      | Some "mdsim-counters-v1" -> rows_of_counters_export j
      | _ -> rows_of_stream content)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let diff ?(tolerance = 0.05) ~baseline ~candidate () =
  let base_rows = metric_rows baseline in
  let cand_rows = metric_rows candidate in
  let entries =
    List.filter_map
      (fun (n, v) -> if v > 0.0 then Some (n, v, tolerance) else None)
      base_rows
  in
  let bl =
    { Bench_check.schema = "mdsim-telemetry-diff";
      default_tolerance = tolerance;
      entries }
  in
  Bench_check.compare bl cand_rows
