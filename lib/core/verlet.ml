type step_record = {
  step : int;
  sim_time : float;
  pe : float;
  ke : float;
  total_energy : float;
  temperature : float;
}

let half_kick (s : System.t) =
  let h = 0.5 *. s.System.params.Params.dt in
  for i = 0 to s.System.n - 1 do
    s.System.vel_x.{i} <- s.System.vel_x.{i} +. (h *. s.System.acc_x.{i});
    s.System.vel_y.{i} <- s.System.vel_y.{i} +. (h *. s.System.acc_y.{i});
    s.System.vel_z.{i} <- s.System.vel_z.{i} +. (h *. s.System.acc_z.{i})
  done

let drift (s : System.t) =
  let dt = s.System.params.Params.dt in
  for i = 0 to s.System.n - 1 do
    s.System.pos_x.{i} <- s.System.pos_x.{i} +. (dt *. s.System.vel_x.{i});
    s.System.pos_y.{i} <- s.System.pos_y.{i} +. (dt *. s.System.vel_y.{i});
    s.System.pos_z.{i} <- s.System.pos_z.{i} +. (dt *. s.System.vel_z.{i});
    System.wrap_atom s i
  done

let prepare s ~engine = engine.Engine.compute s

let step s ~engine =
  half_kick s;
  drift s;
  let pe = engine.Engine.compute s in
  half_kick s;
  pe

let make_record s ~step:n ~pe =
  let ke = Observables.kinetic_energy s in
  { step = n;
    sim_time = float_of_int n *. s.System.params.Params.dt;
    pe;
    ke;
    total_energy = ke +. pe;
    temperature = Observables.temperature s }

(* ------------------------------------------------------------------ *)
(* Invariant guard                                                     *)
(* ------------------------------------------------------------------ *)

type guard = {
  max_energy_jump : float;
  max_momentum_drift : float;
  max_restores : int;
}

let default_guard =
  (* Velocity Verlet conserves energy to a few parts in 1e5 per step at
     the dt used here, and net momentum to rounding error; silent
     corruption (a flipped mantissa/exponent bit in a coordinate or
     acceleration) shows up orders of magnitude above both bounds. *)
  { max_energy_jump = 0.05; max_momentum_drift = 1e-6; max_restores = 4 }

exception Invariant_violation of string

let () =
  Printexc.register_printer (function
    | Invariant_violation reason -> Some ("Verlet.Invariant_violation: " ^ reason)
    | _ -> None)

let installed_guard : guard option Atomic.t = Atomic.make None
let install_guard g = Atomic.set installed_guard (Some g)
let clear_guard () = Atomic.set installed_guard None

(* Observation hooks: telemetry lives above mdcore (it depends on the
   ports' counters), so it registers closures here instead of being
   called directly.  Same single-atomic-load cost profile as the
   installed guard when nothing is registered. *)

let step_listener : (System.t -> step_record -> unit) option Atomic.t =
  Atomic.make None

let set_step_listener f = Atomic.set step_listener f

let notify_step s r =
  match Atomic.get step_listener with None -> () | Some f -> f s r

let alert_listener : (step:int -> reason:string -> unit) option Atomic.t =
  Atomic.make None

let set_alert_listener f = Atomic.set alert_listener f

let notify_alert ~step ~reason =
  match Atomic.get alert_listener with
  | None -> ()
  | Some f -> f ~step ~reason

let check_invariants g s ~prev ~(r : step_record) ~p0 =
  if
    not
      (Float.is_finite r.pe && Float.is_finite r.ke && System.finite s)
  then
    Some
      (Printf.sprintf "non-finite state at step %d (NaN/Inf coordinate or energy)"
         r.step)
  else begin
    let energy_bad =
      match prev with
      | None -> None
      | Some (p : step_record) ->
        let jump =
          abs_float (r.total_energy -. p.total_energy)
          /. Float.max 1.0 (abs_float p.total_energy)
        in
        if jump > g.max_energy_jump then
          Some
            (Printf.sprintf
               "energy jump %.3g at step %d exceeds guard bound %.3g" jump
               r.step g.max_energy_jump)
        else None
    in
    match energy_bad with
    | Some _ as bad -> bad
    | None ->
      let p = Observables.total_momentum s in
      let drift =
        Float.max
          (abs_float (p.Vecmath.Vec3.x -. p0.Vecmath.Vec3.x))
          (Float.max
             (abs_float (p.Vecmath.Vec3.y -. p0.Vecmath.Vec3.y))
             (abs_float (p.Vecmath.Vec3.z -. p0.Vecmath.Vec3.z)))
      in
      let bound = g.max_momentum_drift *. float_of_int s.System.n in
      if drift > bound then
        Some
          (Printf.sprintf
             "net-momentum drift %.3g at step %d exceeds guard bound %.3g"
             drift r.step bound)
      else None
  end

let run s ~engine ~steps ?(max_step_retries = 0) ?guard ?(record = fun _ -> ())
    () =
  if steps < 0 then invalid_arg "Verlet.run: steps < 0";
  if max_step_retries < 0 then invalid_arg "Verlet.run: max_step_retries < 0";
  let guard =
    match guard with Some _ as g -> g | None -> Atomic.get installed_guard
  in
  (* Checkpointed execution: snapshot the full SoA state before each
     force evaluation, and on a mid-step device failure (an unrecovered
     fault escaping the engine) roll back and re-execute the step.  The
     snapshot buffer is reused across steps; the fault-free, guard-free
     path with [max_step_retries = 0] allocates nothing and runs the
     exact pre-checkpointing code. *)
  let checkpoint =
    if max_step_retries > 0 || guard <> None then Some (System.copy s)
    else None
  in
  let checkpointed f =
    match checkpoint with
    | None -> f ()
    | Some snap ->
      System.restore ~dst:snap ~src:s;
      let rec go attempt =
        match f () with
        | r ->
          if attempt > 0 then Mdfault.note_recovered_step ();
          r
        | exception Mdfault.Unrecovered _ when attempt < max_step_retries ->
          System.restore ~dst:s ~src:snap;
          go (attempt + 1)
      in
      go 0
  in
  (* The guard validates the freshly produced record against the previous
     one; on violation it rolls the state back to the pre-step snapshot
     (the newest valid generation) and re-executes.  Re-execution draws
     fresh fault-stream values, so transient silent corruption — a
     texture-lane or DRAM bit flip — converges back to the clean
     trajectory; persistent violations escalate to Invariant_violation. *)
  let guarded ~prev ~p0 exec ~step_index =
    match guard with
    | None ->
      let pe = checkpointed exec in
      make_record s ~step:step_index ~pe
    | Some g ->
      let snap = Option.get checkpoint in
      let rec go restores =
        let pe = checkpointed exec in
        let r = make_record s ~step:step_index ~pe in
        match check_invariants g s ~prev ~r ~p0 with
        | None -> r
        | Some reason ->
          notify_alert ~step:step_index ~reason;
          if step_index > 0 && restores < g.max_restores then begin
            System.restore ~dst:s ~src:snap;
            Mdfault.note_guard_restore ();
            go (restores + 1)
          end
          else raise (Invariant_violation reason)
      in
      go 0
  in
  let p0 = Observables.total_momentum s in
  Sim_util.Deadline.check ();
  let first = guarded ~prev:None ~p0 (fun () -> prepare s ~engine) ~step_index:0 in
  record first;
  notify_step s first;
  let prev = ref first in
  let rest =
    List.init steps (fun k ->
        Sim_util.Deadline.check ();
        let r =
          guarded ~prev:(Some !prev) ~p0
            (fun () -> step s ~engine)
            ~step_index:(k + 1)
        in
        record r;
        notify_step s r;
        prev := r;
        r)
  in
  first :: rest
