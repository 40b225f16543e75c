(* Persistent domain pool.  See the .mli for the design constraints; the
   load-bearing implementation choices are:

   - Each worker owns a mutex + condvar and a one-deep job slot.
     Dispatch is [Mutex.try_lock]-based: a busy (or already recruited)
     worker is simply skipped, which is what makes nested regions safe —
     an inner region entered from a worker finds everyone busy, recruits
     nobody, and the caller drains the whole range itself.
   - A region's completion state (pending count + condvar) is allocated
     per call, not per pool, so concurrent regions on one pool do not
     share counters. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;            (* job arrival and job completion *)
  mutable job : (unit -> unit) option;
  mutable stop : bool;
}

type prof_set = {
  p_regions : Mdprof.counter;
  p_chunks : Mdprof.counter;
  p_mutex : Mutex.t;
      (* unlike virtual counters, these are bumped from whichever domain
         runs a region, so updates need the lock *)
}

type t = {
  size : int;
  workers : worker array;        (* [size - 1] entries *)
  handles : unit Domain.t array;
  mutable alive : bool;
  mutable obs : Mdobs.track option;  (* host-clock track, created lazily *)
  mutable prof : prof_set option;    (* host-clock counters, created lazily *)
}

let worker_loop (w : worker) =
  let rec loop () =
    Mutex.lock w.mutex;
    while w.job = None && not w.stop do
      Condition.wait w.cond w.mutex
    done;
    match w.job with
    | Some job ->
      Mutex.unlock w.mutex;
      job ();
      Mutex.lock w.mutex;
      w.job <- None;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      loop ()
    | None ->
      (* stop requested *)
      Mutex.unlock w.mutex
  in
  loop ()

let create ?domains () =
  let size =
    match domains with
    | None -> Domain.recommended_domain_count ()
    | Some d ->
      if d <= 0 then invalid_arg "Mdpar.create: domains must be positive";
      d
  in
  let workers =
    Array.init (size - 1) (fun _ ->
        { mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          stop = false })
  in
  let handles =
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers
  in
  { size; workers; handles; alive = true; obs = None; prof = None }

let size t = t.size

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        (* Let an in-flight job finish; the loop re-checks [stop] before
           parking again. *)
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      t.workers;
    Array.iter Domain.join t.handles
  end

(* ------------------------------------------------------------------ *)
(* Default size and the shared registry                                *)
(* ------------------------------------------------------------------ *)

let default_override = ref None

let set_default_domains d =
  if d <= 0 then invalid_arg "Mdpar.set_default_domains: must be positive";
  default_override := Some d

let default_domains () =
  match !default_override with
  | Some d -> d
  | None -> begin
    match Sys.getenv_opt "MDSIM_DOMAINS" with
    | Some v -> begin
      match int_of_string_opt (String.trim v) with
      | Some d when d > 0 -> d
      | _ -> Domain.recommended_domain_count ()
    end
    | None -> Domain.recommended_domain_count ()
  end

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()
let at_exit_registered = ref false

let get ?domains () =
  let d = match domains with Some d -> d | None -> default_domains () in
  if d <= 0 then invalid_arg "Mdpar.get: domains must be positive";
  Mutex.lock registry_mutex;
  let pool =
    match Hashtbl.find_opt registry d with
    | Some p -> p
    | None ->
      let p = create ~domains:d () in
      Hashtbl.replace registry d p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit (fun () ->
            Mutex.lock registry_mutex;
            let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
            Hashtbl.reset registry;
            Mutex.unlock registry_mutex;
            List.iter shutdown pools)
      end;
      p
  in
  Mutex.unlock registry_mutex;
  pool

(* ------------------------------------------------------------------ *)
(* Parallel regions                                                    *)
(* ------------------------------------------------------------------ *)

(* Host-clock observability track for this pool: created on first use
   with tracing enabled, so pools built before [Mdobs.enable] still get a
   live track later.  A lost race just yields a benign [#n]-suffixed
   duplicate; host tracks carry no determinism guarantee. *)
let obs_track t =
  if not (Mdobs.enabled ()) then None
  else begin
    match t.obs with
    | Some _ as o -> o
    | None ->
      let tr =
        Mdobs.new_track ~clock:Mdobs.Host
          (Printf.sprintf "mdpar/pool-%d" t.size)
      in
      t.obs <- Some tr;
      Some tr
  end

(* Host-clock profile counters, lazily like [obs_track].  Registered
   outside the caller's scope so every region on this pool accumulates
   into one stable pair of names; a lost creation race is benign
   (get-or-create returns the same cells). *)
let prof_set t =
  if not (Mdprof.enabled ()) then None
  else begin
    match t.prof with
    | Some _ as p -> p
    | None ->
      let p =
        Mdobs.with_scope "" (fun () ->
            { p_regions =
                Mdprof.counter ~clock:Mdprof.Host
                  (Printf.sprintf "mdpar/pool-%d/regions" t.size);
              p_chunks =
                Mdprof.counter ~clock:Mdprof.Host
                  (Printf.sprintf "mdpar/pool-%d/chunks" t.size);
              p_mutex = Mutex.create () })
      in
      t.prof <- Some p;
      Some p
  end

let prof_count t ~chunks =
  match prof_set t with
  | Some p ->
    Mutex.lock p.p_mutex;
    Mdprof.incr p.p_regions;
    Mdprof.add p.p_chunks chunks;
    Mutex.unlock p.p_mutex
  | None -> ()

(* Hand [work] to every currently idle worker and run it inline too;
   return once every recruited copy has finished.  [work] must be
   idempotent-by-partition: participants pull work items from a shared
   atomic source, so running it on fewer domains only means fewer
   helpers. *)
let run_region t (work : unit -> unit) =
  if t.size = 1 || not t.alive || Array.length t.workers = 0 then work ()
  else begin
    let obs = obs_track t in
    let t0 = match obs with Some _ -> Mdobs.host_now () | None -> 0.0 in
    let recruited = ref 0 in
    let fin_mutex = Mutex.create () in
    let fin_cond = Condition.create () in
    let pending = ref 0 in
    let error = Atomic.make None in
    let job () =
      (try work ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set error None (Some (e, bt))));
      Mutex.lock fin_mutex;
      decr pending;
      if !pending = 0 then Condition.broadcast fin_cond;
      Mutex.unlock fin_mutex
    in
    let try_recruit w =
      if Mutex.try_lock w.mutex then begin
        let idle = w.job = None && not w.stop in
        if idle then begin
          w.job <- Some job;
          Condition.broadcast w.cond
        end;
        Mutex.unlock w.mutex;
        idle
      end
      else false
    in
    Array.iter
      (fun w ->
        Mutex.lock fin_mutex;
        incr pending;
        Mutex.unlock fin_mutex;
        if try_recruit w then incr recruited
        else begin
          Mutex.lock fin_mutex;
          decr pending;
          Mutex.unlock fin_mutex
        end)
      t.workers;
    let caller_error =
      try
        work ();
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fin_mutex;
    while !pending > 0 do
      Condition.wait fin_cond fin_mutex
    done;
    Mutex.unlock fin_mutex;
    (match obs with
    | Some tr ->
      (* workers = recruited helpers + the caller *)
      Mdobs.span tr ~name:"parallel_for" ~ts:t0
        ~dur:(Mdobs.host_now () -. t0)
        ~args:[ ("workers", Mdobs.Int (!recruited + 1)) ]
        ()
    | None -> ());
    match caller_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> begin
      match Atomic.get error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_for ?chunk t ~lo ~hi body =
  let len = hi - lo + 1 in
  if len <= 0 then ()
  else if t.size = 1 || len = 1 then begin
    prof_count t ~chunks:1;
    for i = lo to hi do
      body i
    done
  end
  else begin
    let chunk =
      match chunk with
      | Some c ->
        if c <= 0 then invalid_arg "Mdpar.parallel_for: chunk must be positive";
        c
      | None -> max 1 (len / (4 * t.size))
    in
    prof_count t ~chunks:((len + chunk - 1) / chunk);
    let next = Atomic.make lo in
    let obs = obs_track t in
    let work () =
      let chunks = ref 0 in
      let rec drain () =
        let start = Atomic.fetch_and_add next chunk in
        if start <= hi then begin
          let stop = min hi (start + chunk - 1) in
          for i = start to stop do
            body i
          done;
          incr chunks;
          drain ()
        end
      in
      drain ();
      match obs with
      | Some tr ->
        Mdobs.instant tr ~name:"drain" ~ts:(Mdobs.host_now ())
          ~args:[ ("chunks", Mdobs.Int !chunks) ]
          ()
      | None -> ()
    in
    run_region t work
  end

let map_list t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let output = Array.make n None in
    parallel_for ~chunk:1 t ~lo:0 ~hi:(n - 1) (fun i ->
        output.(i) <- Some (f input.(i)));
    Array.to_list
      (Array.map
         (function
           | Some y -> y
           | None -> assert false (* parallel_for covered every index *))
         output)
