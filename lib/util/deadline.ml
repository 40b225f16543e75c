exception Expired of float

let () =
  Printexc.register_printer (function
    | Expired budget ->
      Some (Printf.sprintf "Deadline.Expired(%gs wall-clock budget)" budget)
    | _ -> None)

(* Fast path: a single atomic counter of live budgets anywhere in the
   process.  [check] in a tight integration loop must cost one load when no
   deadline is armed, mirroring the disabled paths of Mdobs and Mdfault. *)
let active_budgets = Atomic.make 0

type budget = { expires_at : float; seconds : float }

let key : budget option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let check () =
  if Atomic.get active_budgets > 0 then
    match !(Domain.DLS.get key) with
    | None -> ()
    | Some b -> if Unix.gettimeofday () > b.expires_at then raise (Expired b.seconds)

let with_budget ~seconds f =
  if not (seconds > 0.0) then
    invalid_arg "Deadline.with_budget: seconds must be positive";
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := Some { expires_at = Unix.gettimeofday () +. seconds; seconds };
  Atomic.incr active_budgets;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active_budgets;
      slot := saved)
    f
