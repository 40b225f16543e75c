(* mdsim-ledger-v1: the serve daemon's durable append-only job ledger.

   One JSON object per line, each carrying the schema tag, a
   monotonically increasing sequence number, and a CRC-32 of the record
   body so replay can tell a torn tail from silent corruption.  Every
   job state transition — submitted, segment completed, retrying,
   resumed, terminal — is appended (write + fsync) *after* the matching
   checkpoint generation is durable, so the ledger never claims progress
   the checkpoint store cannot back.  Replaying the file after a crash
   (kill -9 included) reconstructs the queue exactly: a torn final
   record is tolerated and dropped; anything else that fails its CRC is
   reported and skipped. *)

module Minijson = Sim_util.Minijson

let schema = "mdsim-ledger-v1"

type jobspec = {
  js_id : string;
  js_tenant : string;
  js_priority : int;          (* scheduler quantum: consecutive segments *)
  js_device : string;
  js_atoms : int;
  js_steps : int;
  js_seed : int;
  js_density : float;
  js_temperature : float;
  js_engine : string;         (* "default" | "pairlist" | "n2" *)
  js_skin : float;
  js_every : int;             (* checkpoint segment length, steps *)
  js_keep : int;              (* checkpoint generations kept *)
  js_faults : string option;  (* Mdfault plan spec, verbatim *)
  js_deadline : float option; (* host-seconds budget across all segments *)
  js_telemetry : bool;
  js_tel_every : int;
}

type event =
  | Submitted of jobspec
  | Resumed of { ev_job : string; ev_completed : int }
  | Segment of { ev_job : string; ev_completed : int; ev_total : int }
  | Retrying of { ev_job : string; ev_attempt : int; ev_reason : string }
  | Done of { ev_job : string; ev_status : string; ev_completed : int }
  | Cancelled of { ev_job : string; ev_completed : int }
  | Failed of { ev_job : string; ev_reason : string; ev_completed : int }
  | Degraded of { ev_job : string; ev_reason : string; ev_completed : int }
  | Drained of { ev_job : string; ev_completed : int }

(* --- encoding --- *)

let spec_json js =
  Printf.sprintf
    "{\"tenant\":%s,\"priority\":%d,\"device\":%s,\"atoms\":%d,\"steps\":%d,\
     \"seed\":%d,\"density\":%s,\"temperature\":%s,\"engine\":%s,\"skin\":%s,\
     \"every\":%d,\"keep\":%d,\"faults\":%s,\"deadline\":%s,\
     \"telemetry\":%b,\"tel_every\":%d}"
    (Mdobs.json_string js.js_tenant)
    js.js_priority
    (Mdobs.json_string js.js_device)
    js.js_atoms js.js_steps js.js_seed
    (Mdobs.json_float js.js_density)
    (Mdobs.json_float js.js_temperature)
    (Mdobs.json_string js.js_engine)
    (Mdobs.json_float js.js_skin)
    js.js_every js.js_keep
    (match js.js_faults with Some s -> Mdobs.json_string s | None -> "null")
    (match js.js_deadline with Some d -> Mdobs.json_float d | None -> "null")
    js.js_telemetry js.js_tel_every

let body ~seq ev =
  let record kind job rest =
    Printf.sprintf "{\"schema\":%s,\"seq\":%d,\"event\":%s,\"job\":%s%s}"
      (Mdobs.json_string schema) seq (Mdobs.json_string kind)
      (Mdobs.json_string job) rest
  in
  match ev with
  | Submitted js ->
    record "submitted" js.js_id (Printf.sprintf ",\"spec\":%s" (spec_json js))
  | Resumed e ->
    record "resumed" e.ev_job
      (Printf.sprintf ",\"completed\":%d" e.ev_completed)
  | Segment e ->
    record "segment" e.ev_job
      (Printf.sprintf ",\"completed\":%d,\"total\":%d" e.ev_completed
         e.ev_total)
  | Retrying e ->
    record "retrying" e.ev_job
      (Printf.sprintf ",\"attempt\":%d,\"reason\":%s" e.ev_attempt
         (Mdobs.json_string e.ev_reason))
  | Done e ->
    record "done" e.ev_job
      (Printf.sprintf ",\"status\":%s,\"completed\":%d"
         (Mdobs.json_string e.ev_status) e.ev_completed)
  | Cancelled e ->
    record "cancelled" e.ev_job
      (Printf.sprintf ",\"completed\":%d" e.ev_completed)
  | Failed e ->
    record "failed" e.ev_job
      (Printf.sprintf ",\"reason\":%s,\"completed\":%d"
         (Mdobs.json_string e.ev_reason) e.ev_completed)
  | Degraded e ->
    record "degraded" e.ev_job
      (Printf.sprintf ",\"reason\":%s,\"completed\":%d"
         (Mdobs.json_string e.ev_reason) e.ev_completed)
  | Drained e ->
    record "drained" e.ev_job
      (Printf.sprintf ",\"completed\":%d" e.ev_completed)

let crc_marker = ",\"crc\":"

(* The CRC covers the record body *without* the crc field: the body's
   closing brace is replaced by [,"crc":N}].  Verification strips the
   suffix back off by finding the marker from the right, so string
   values containing the marker text cannot confuse it (the real one is
   always last). *)
let encode_line ~seq ev =
  let b = body ~seq ev in
  Printf.sprintf "%s%s%d}"
    (String.sub b 0 (String.length b - 1))
    crc_marker (Mdckpt.crc32 b)

let rfind_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i < 0 then None
    else if String.sub s i m = sub then Some i
    else go (i - 1)
  in
  if m = 0 || m > n then None else go (n - m)

(* One line -> parsed JSON, if the schema matches and the CRC holds. *)
let verify_line line =
  match rfind_sub line crc_marker with
  | None -> Error "missing crc field"
  | Some i -> (
    if String.length line = 0 || line.[String.length line - 1] <> '}' then
      Error "unterminated record"
    else
      let body = String.sub line 0 i ^ "}" in
      match Minijson.parse line with
      | exception Minijson.Parse_error msg -> Error msg
      | j -> (
        match Option.bind (Minijson.member "crc" j) Minijson.to_float with
        | None -> Error "missing crc"
        | Some crc ->
          if int_of_float crc <> Mdckpt.crc32 body then Error "crc mismatch"
          else if Option.bind (Minijson.member "schema" j) Minijson.to_string
                  <> Some schema
          then Error "foreign schema"
          else Ok j))

(* --- field readers, shared with the wire protocol ---

   An absent or null field is [None].  A present field of another type,
   or a number where an exact integer is expected, raises [Bad_field]
   naming the field: a mistyped field never becomes a default. *)

exception Bad_field of string

let field j name =
  match Minijson.member name j with
  | None | Some Minijson.Null -> None
  | some -> some

let bad name what = raise (Bad_field (Printf.sprintf "%s must be %s" name what))

let str_field j name =
  match field j name with
  | None -> None
  | Some (Minijson.Str s) -> Some s
  | Some _ -> bad name "a string"

let num_field j name =
  match field j name with
  | None -> None
  | Some (Minijson.Num f) -> Some f
  | Some _ -> bad name "a number"

(* 2^53 bounds the integers a JSON number (a binary64) holds exactly. *)
let int_field j name =
  match field j name with
  | None -> None
  | Some (Minijson.Num f) when Float.is_integer f && Float.abs f <= 0x1p53 ->
    Some (int_of_float f)
  | Some _ -> bad name "an integer"

let bool_field j name =
  match field j name with
  | None -> None
  | Some (Minijson.Bool b) -> Some b
  | Some _ -> bad name "true or false"

(* --- decoding a replayed record back into the event type --- *)

let spec_of_json ~id j =
  let str name d = Option.value ~default:d (str_field j name) in
  let int name d = Option.value ~default:d (int_field j name) in
  let num name d = Option.value ~default:d (num_field j name) in
  {
    js_id = id;
    js_tenant = str "tenant" "default";
    js_priority = int "priority" 1;
    js_device = str "device" "opteron";
    js_atoms = int "atoms" 256;
    js_steps = int "steps" 100;
    js_seed = int "seed" 42;
    js_density = num "density" 0.8;
    js_temperature = num "temperature" 1.0;
    js_engine = str "engine" "default";
    js_skin = num "skin" 0.4;
    js_every = int "every" 25;
    js_keep = int "keep" 4;
    js_faults = str_field j "faults";
    js_deadline = num_field j "deadline";
    js_telemetry = Option.value ~default:false (bool_field j "telemetry");
    js_tel_every = int "tel_every" (int "every" 25);
  }

let event_of_json j =
  try
    let job = Option.value ~default:"" (str_field j "job") in
    let completed = Option.value ~default:0 (int_field j "completed") in
    let reason = Option.value ~default:"" (str_field j "reason") in
    match str_field j "event" with
    | Some "submitted" -> (
      match field j "spec" with
      | Some spec -> Ok (Submitted (spec_of_json ~id:job spec))
      | None -> Error "submitted record without spec")
    | Some "resumed" -> Ok (Resumed { ev_job = job; ev_completed = completed })
    | Some "segment" ->
      Ok
        (Segment
           {
             ev_job = job;
             ev_completed = completed;
             ev_total = Option.value ~default:0 (int_field j "total");
           })
    | Some "retrying" ->
      Ok
        (Retrying
           {
             ev_job = job;
             ev_attempt = Option.value ~default:1 (int_field j "attempt");
             ev_reason = reason;
           })
    | Some "done" ->
      Ok
        (Done
           {
             ev_job = job;
             ev_status = Option.value ~default:"ok" (str_field j "status");
             ev_completed = completed;
           })
    | Some "cancelled" ->
      Ok (Cancelled { ev_job = job; ev_completed = completed })
    | Some "failed" ->
      Ok (Failed { ev_job = job; ev_reason = reason; ev_completed = completed })
    | Some "degraded" ->
      Ok
        (Degraded { ev_job = job; ev_reason = reason; ev_completed = completed })
    | Some "drained" -> Ok (Drained { ev_job = job; ev_completed = completed })
    | Some other -> Error ("unknown event " ^ other)
    | None -> Error "record without event"
  with Bad_field msg -> Error msg

(* --- replay --- *)

type job_view = {
  v_spec : jobspec;
  v_completed : int;
  v_attempts : int;
  v_terminal : string option; (* ok|recovered|degraded|failed|cancelled *)
}

type replay = {
  r_jobs : job_view list; (* submit order *)
  r_next_seq : int;
  r_notes : string list;  (* dropped/suspect records, oldest first *)
}

let replay_string data =
  let lines = String.split_on_char '\n' data in
  (* drop the empty tail produced by a trailing newline *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let total = List.length lines in
  let jobs : (string, job_view) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let notes = ref [] in
  let next_seq = ref 0 in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match verify_line line with
      | Error msg ->
        if lineno = total then note "dropped torn final record (%s)" msg
        else note "ignored corrupt record at line %d (%s)" lineno msg
      | Ok j -> (
        (match int_field j "seq" with
        | Some s when s >= !next_seq -> next_seq := s + 1
        | _ | (exception Bad_field _) -> ());
        match event_of_json j with
        | Error msg -> note "ignored record at line %d: %s" lineno msg
        | Ok (Submitted js) ->
          if Hashtbl.mem jobs js.js_id then
            note "ignored duplicate submit for %s at line %d" js.js_id lineno
          else begin
            Hashtbl.replace jobs js.js_id
              { v_spec = js; v_completed = 0; v_attempts = 0;
                v_terminal = None };
            order := js.js_id :: !order
          end
        | Ok ev -> (
          let update id f =
            match Hashtbl.find_opt jobs id with
            | Some v -> Hashtbl.replace jobs id (f v)
            | None -> note "record for unknown job %s at line %d" id lineno
          in
          match ev with
          | Submitted _ -> ()
          | Resumed e ->
            update e.ev_job (fun v ->
                { v with v_completed = max v.v_completed e.ev_completed })
          | Segment e ->
            update e.ev_job (fun v ->
                { v with v_completed = max v.v_completed e.ev_completed })
          | Retrying e ->
            update e.ev_job (fun v ->
                { v with v_attempts = max v.v_attempts e.ev_attempt })
          | Done e ->
            update e.ev_job (fun v ->
                { v with v_terminal = Some e.ev_status;
                  v_completed = max v.v_completed e.ev_completed })
          | Cancelled e ->
            update e.ev_job (fun v -> { v with v_terminal = Some "cancelled";
                v_completed = max v.v_completed e.ev_completed })
          | Failed e ->
            update e.ev_job (fun v -> { v with v_terminal = Some "failed";
                v_completed = max v.v_completed e.ev_completed })
          | Degraded e ->
            update e.ev_job (fun v -> { v with v_terminal = Some "degraded";
                v_completed = max v.v_completed e.ev_completed })
          | Drained e ->
            (* drained jobs stay non-terminal: they are exactly the ones
               a --resume-queue restart re-adopts *)
            update e.ev_job (fun v ->
                { v with v_completed = max v.v_completed e.ev_completed }))))
    lines;
  {
    r_jobs = List.rev_map (fun id -> Hashtbl.find jobs id) !order;
    r_next_seq = !next_seq;
    r_notes = List.rev !notes;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let replay_file path =
  if Sys.file_exists path then replay_string (read_file path)
  else { r_jobs = []; r_next_seq = 0; r_notes = [] }

(* --- writer --- *)

exception Write_failed of string

let () =
  Printexc.register_printer (function
    | Write_failed msg -> Some ("Ledger.Write_failed: " ^ msg)
    | _ -> None)

type writer = {
  w_io : Mdio.t;
  mutable w_seq : int;
  mutable w_good : int;
      (* byte offset of the durable good tail: everything below it is
         complete, fsynced records *)
  mutable w_poisoned : bool;
      (* a write or fsync failed after w_good; the file may carry a torn
         or non-durable tail that must be truncated away before any
         further append *)
  mutable w_closed : bool;
}

(* Every record we write ends in '\n' and is issued as one write(2), so
   a torn tail (crash or failed append) is exactly the bytes after the
   last newline.  Truncating them at open keeps torn records confined to
   the final position forever: without this, appending after a crash
   would bury the torn record mid-file. *)
let truncate_torn_tail ~path =
  match read_file path with
  | exception Sys_error _ -> ()
  | content ->
    let len = String.length content in
    if len > 0 && content.[len - 1] <> '\n' then begin
      let good =
        match String.rindex_opt content '\n' with
        | Some i -> i + 1
        | None -> 0
      in
      match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try Unix.ftruncate fd good with Unix.Unix_error _ -> ());
            try Unix.fsync fd with Unix.Unix_error _ -> ())
    end

let open_writer ~path ~next_seq =
  if Sys.file_exists path then truncate_torn_tail ~path;
  let io = Mdio.openw ~append:true path in
  { w_io = io;
    w_seq = next_seq;
    w_good = Mdio.size io;
    w_poisoned = false;
    w_closed = false }

(* Repair after a failed append: drop everything past the last known
   good record.  ftruncate itself is the unshimmed repair primitive (a
   repair path must converge), but the fsync that makes the truncation
   durable goes through the shim — if it faults, the retry loop repairs
   again. *)
let repair w =
  Mdio.truncate w.w_io w.w_good;
  Mdio.fsync w.w_io;
  w.w_poisoned <- false

let append_attempts = 4

(* One write(2) per record (O_APPEND keeps it a single atomic-ish tail
   extension), then fsync — both through the Mdio shim.  A failed write
   or fsync poisons the writer (the tail may be torn or non-durable),
   repair truncates back to the good tail, and the append is retried; if
   [append_attempts] rounds all fail, [Write_failed] is raised with the
   writer left poisoned — the next append repairs first, and the caller
   must NOT treat the record as durable.  Mdio.Crashed always
   propagates: a dead process doesn't retry. *)
let append w ev =
  if not w.w_closed then begin
    let line = encode_line ~seq:w.w_seq ev ^ "\n" in
    let rec attempt k last_err =
      if k >= append_attempts then begin
        w.w_poisoned <- true;
        raise
          (Write_failed
             (Printf.sprintf "ledger append failed after %d attempts: %s"
                append_attempts last_err))
      end
      else
        match
          if w.w_poisoned then repair w;
          Mdio.write w.w_io line;
          Mdio.fsync w.w_io
        with
        | () ->
          w.w_good <- w.w_good + String.length line;
          w.w_seq <- w.w_seq + 1
        | exception Unix.Unix_error (e, fn, _) ->
          w.w_poisoned <- true;
          attempt (k + 1)
            (Printf.sprintf "%s in %s" (Unix.error_message e) fn)
    in
    attempt 0 "no attempt made"
  end

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    try Mdio.close w.w_io with Unix.Unix_error _ -> ()
  end

(* Last [limit] intact records mentioning [job] (all jobs if [job] is
   empty), newest last — the daemon's `tail` op. *)
let tail_lines data ~job ~limit =
  let lines = String.split_on_char '\n' data in
  let keep line =
    match verify_line line with
    | Error _ -> None
    | Ok j ->
      let mentions =
        try str_field j "job" = Some job with Bad_field _ -> false
      in
      if job = "" || mentions then Some line else None
  in
  let matching = List.filter_map keep lines in
  let n = List.length matching in
  if n <= limit then matching
  else
    List.filteri (fun i _ -> i >= n - limit) matching
