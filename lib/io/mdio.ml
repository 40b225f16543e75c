(* The durable-write shim (see mdio.mli).  Layering per op:

   1. dead check — a simulated-dead process performs nothing (close
      still releases the descriptor so the in-process sweep cannot
      leak fds);
   2. op boundary — count the op and, if the armed crash index is
      reached, apply the op's torn prefix (writes only), flip dead,
      raise [Crashed];
   3. fault consultation — only when a plan is active, per-site seeded
      streams in Mdfault's replayable style;
   4. the real syscall.

   With no plan (or all io rates zero) steps 2-3 cost one atomic
   increment and two loads on top of the direct syscall, and produce
   byte-identical files. *)

exception Crashed of int

let () =
  Printexc.register_printer (function
    | Crashed k ->
      Some (Printf.sprintf "Mdio.Crashed: simulated process death at I/O op %d" k)
    | _ -> None)

type t = { io_path : string; mutable io_fd : Unix.file_descr option }

(* ------------------------------------------------------------------ *)
(* Op counting and simulated death                                     *)
(* ------------------------------------------------------------------ *)

let ops = Atomic.make 0
let dead_flag = ref false
let override_crash : int option ref = ref None

let op_count () = Atomic.get ops
let alive () = not !dead_flag
let set_crash_point k = override_crash := k

let reset () =
  Atomic.set ops 0;
  override_crash := None;
  dead_flag := false

let crash_target () =
  match !override_crash with
  | Some _ as k -> k
  | None -> (
    match Mdfault.current_spec () with
    | Some spec -> spec.Mdfault.io_crash_at
    | None -> None)

(* Count one op; die here if this is the armed index.  [partial] is the
   op's torn-write effect — what a mid-syscall kill leaves on disk. *)
let boundary ?(partial = fun () -> ()) () =
  let n = Atomic.fetch_and_add ops 1 in
  match crash_target () with
  | Some k when n = k ->
    partial ();
    dead_flag := true;
    raise (Crashed n)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault consultation                                                  *)
(* ------------------------------------------------------------------ *)

(* One stream per (scope, site) in the active plan; first firing site
   wins.  Streams are independent PRNGs, so short-circuiting one site
   never perturbs another's draw sequence. *)
let fault_fire site =
  if not (Mdfault.active ()) then None
  else begin
    let st = Mdfault.stream site "io" in
    if Mdfault.inert st then None
    else if Mdfault.fire st then Some st
    else None
  end

let fail st ~errno ~op ~path ~detail =
  Mdfault.record_silent st ~detail:(fun () -> detail);
  raise (Unix.Unix_error (errno, op, path))

(* ------------------------------------------------------------------ *)
(* Shimmed operations                                                  *)
(* ------------------------------------------------------------------ *)

let really_write fd s pos len =
  let rec go pos len =
    if len > 0 then begin
      let n = Unix.write_substring fd s pos len in
      go (pos + n) (len - n)
    end
  in
  go pos len

let openw ?(append = false) path =
  if !dead_flag then { io_path = path; io_fd = None }
  else begin
    boundary ();
    let flags =
      if append then [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      else [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
    in
    { io_path = path; io_fd = Some (Unix.openfile path flags 0o644) }
  end

let write t s =
  if not !dead_flag then begin
    let len = String.length s in
    (* Deterministic torn write: the first half of the buffer lands,
       the rest never does. *)
    let torn () =
      match t.io_fd with
      | Some fd ->
        (try really_write fd s 0 (len / 2) with Unix.Unix_error _ -> ())
      | None -> ()
    in
    boundary ~partial:torn ();
    match fault_fire Mdfault.Io_short_write with
    | Some st ->
      torn ();
      fail st ~errno:Unix.EIO ~op:"write" ~path:t.io_path
        ~detail:
          (Printf.sprintf "short write: %d of %d bytes reached %s" (len / 2)
             len t.io_path)
    | None -> (
      match fault_fire Mdfault.Io_eio with
      | Some st ->
        fail st ~errno:Unix.EIO ~op:"write" ~path:t.io_path
          ~detail:(Printf.sprintf "EIO: no byte of %d reached %s" len t.io_path)
      | None -> (
        match fault_fire Mdfault.Io_enospc with
        | Some st ->
          torn ();
          fail st ~errno:Unix.ENOSPC ~op:"write" ~path:t.io_path
            ~detail:
              (Printf.sprintf "ENOSPC after %d of %d bytes at %s" (len / 2)
                 len t.io_path)
        | None -> (
          match t.io_fd with
          | Some fd -> really_write fd s 0 len
          | None -> ())))
  end

let fsync t =
  if not !dead_flag then begin
    boundary ();
    match fault_fire Mdfault.Io_fsync_fail with
    | Some st ->
      fail st ~errno:Unix.EIO ~op:"fsync" ~path:t.io_path
        ~detail:("fsync failed: " ^ t.io_path ^ " never reached the platter")
    | None -> (
      match t.io_fd with Some fd -> Unix.fsync fd | None -> ())
  end

(* Close is a counted op but never a crash point: closing an fd does
   not change what is durable (crash-at-close ≡ crash at the next
   boundary), and closes run inside unwind handlers (Fun.protect
   finallys), where a raise would wrap the in-flight Crashed in
   Finally_raised and mask it from the sweep driver. *)
let close t =
  match t.io_fd with
  | None -> ()
  | Some fd ->
    if not !dead_flag then ignore (Atomic.fetch_and_add ops 1);
    t.io_fd <- None;
    Unix.close fd

let close_noerr t =
  try close t with Unix.Unix_error _ -> ()

let truncate t len =
  if not !dead_flag then
    match t.io_fd with Some fd -> Unix.ftruncate fd len | None -> ()

let size t =
  match t.io_fd with Some fd -> (Unix.fstat fd).Unix.st_size | None -> 0

let rename ~src ~dst =
  if not !dead_flag then begin
    boundary ();
    match fault_fire Mdfault.Io_rename_fail with
    | Some st ->
      fail st ~errno:Unix.EIO ~op:"rename" ~path:src
        ~detail:(Printf.sprintf "rename %s -> %s failed" src dst)
    | None -> Unix.rename src dst
  end

(* Directory fsync stays best-effort (errors swallowed), matching the
   historical checkpoint behaviour — but it is still a counted op, so
   the crash sweep covers the window between rename and dir fsync. *)
let dirsync path =
  if not !dead_flag then begin
    boundary ();
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
    | exception Unix.Unix_error _ -> ()
  end

let remove path =
  if not !dead_flag then begin
    boundary ();
    Unix.unlink path
  end

(* ------------------------------------------------------------------ *)
(* Atomic file replace                                                 *)
(* ------------------------------------------------------------------ *)

let write_atomic ?(fsync_dir = true) ~path data =
  let tmp = path ^ ".tmp" in
  try
    let wr = openw tmp in
    (try
       write wr data;
       fsync wr;
       close wr
     with e ->
       close_noerr wr;
       raise e);
    rename ~src:tmp ~dst:path;
    if fsync_dir then dirsync (Filename.dirname path)
  with
  | Crashed _ as e ->
    (* a real crash leaves the .tmp behind; recovery must ignore it *)
    raise e
  | e ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise e
