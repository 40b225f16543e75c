(* Harness run manifest: a durable record of which experiments a
   classified report run has already finished, so an interrupted
   `mdsim experiment --manifest FILE` picks up where it left off instead
   of recomputing hours of completed sweeps.

   The file (schema mdsim-manifest-v1) reuses the checkpoint layer's
   CRC-checksummed section container and [Mdio]'s atomic
   tmp+fsync+rename replace, so a crash mid-update leaves the previous
   complete manifest, never a torn one.  Entries are keyed by the run
   configuration (scale key + fault spec): a manifest written under one
   configuration never satisfies a resume under another. *)

module Wire = Mdckpt.Wire

let schema = "mdsim-manifest-v1"
let magic = schema ^ "\n"

type entry = {
  ent_id : string;            (* experiment id *)
  ent_key : string;           (* configuration key at record time *)
  ent_status : string;        (* "ok" | "recovered" | "degraded" | "failed" *)
  ent_error : string option;
  ent_faults : Mdfault.summary;
  ent_outcome : Experiment.outcome;
}

(* A finished entry is one whose result is worth reusing on resume.
   Degraded and failed entries (including deadline aborts) are retried:
   the whole point of resuming is to give them another chance with the
   time that the completed entries no longer consume. *)
let reusable e = e.ent_status = "ok" || e.ent_status = "recovered"

(* --- wire encoding --- *)

let enc_summary buf (s : Mdfault.summary) =
  Wire.i64 buf s.Mdfault.injected;
  Wire.i64 buf s.Mdfault.retries;
  Wire.i64 buf s.Mdfault.recoveries;
  Wire.i64 buf s.Mdfault.unrecovered;
  Wire.f64 buf s.Mdfault.backoff_seconds;
  Wire.i64 buf s.Mdfault.recovered_steps

let dec_summary r =
  let injected = Wire.rint r in
  let retries = Wire.rint r in
  let recoveries = Wire.rint r in
  let unrecovered = Wire.rint r in
  let backoff_seconds = Wire.rf64 r in
  let recovered_steps = Wire.rint r in
  { Mdfault.injected; retries; recoveries; unrecovered; backoff_seconds;
    recovered_steps }

let enc_check buf (c : Experiment.check) =
  Wire.str buf c.Experiment.name;
  Wire.bool buf c.Experiment.passed;
  Wire.str buf c.Experiment.detail

let dec_check r =
  let name = Wire.rstr r in
  let passed = Wire.rbool r in
  let detail = Wire.rstr r in
  { Experiment.name; passed; detail }

let enc_outcome buf (o : Experiment.outcome) =
  Wire.str buf o.Experiment.id;
  Wire.str buf o.Experiment.title;
  Wire.list buf Wire.str (Sim_util.Table.headers o.Experiment.table);
  Wire.list buf
    (fun buf row -> Wire.list buf Wire.str row)
    (Sim_util.Table.rows o.Experiment.table);
  Wire.list buf enc_check o.Experiment.checks;
  Wire.list buf Wire.str o.Experiment.notes;
  Wire.opt buf Wire.str o.Experiment.figure;
  Wire.list buf
    (fun buf (name, s) ->
      Wire.str buf name;
      Wire.f64 buf s)
    o.Experiment.virtual_seconds

let dec_outcome r =
  let id = Wire.rstr r in
  let title = Wire.rstr r in
  let headers = Wire.rlist r Wire.rstr in
  let rows = Wire.rlist r (fun r -> Wire.rlist r Wire.rstr) in
  let checks = Wire.rlist r dec_check in
  let notes = Wire.rlist r Wire.rstr in
  let figure = Wire.ropt r Wire.rstr in
  let virtual_seconds =
    Wire.rlist r (fun r ->
        let name = Wire.rstr r in
        let s = Wire.rf64 r in
        (name, s))
  in
  { Experiment.id; title;
    table = Sim_util.Table.of_rows ~headers rows;
    checks; notes; figure; virtual_seconds }

let enc_entry buf e =
  Wire.str buf e.ent_id;
  Wire.str buf e.ent_key;
  Wire.str buf e.ent_status;
  Wire.opt buf Wire.str e.ent_error;
  enc_summary buf e.ent_faults;
  enc_outcome buf e.ent_outcome

let dec_entry r =
  let ent_id = Wire.rstr r in
  let ent_key = Wire.rstr r in
  let ent_status = Wire.rstr r in
  let ent_error = Wire.ropt r Wire.rstr in
  let ent_faults = dec_summary r in
  let ent_outcome = dec_outcome r in
  { ent_id; ent_key; ent_status; ent_error; ent_faults; ent_outcome }

let payload_of_entry e =
  let buf = Buffer.create 1024 in
  enc_entry buf e;
  Buffer.contents buf

(* --- the manifest itself --- *)

type t = {
  path : string;
  key : string;
  lock : Mutex.t;
  flock : Mdckpt.Lock.t;   (* single-writer guard, held until [close] *)
  entries : (string, entry) Hashtbl.t;  (* by experiment id *)
}

let encode_entries entries =
  Mdckpt.encode_container ~magic
    (List.map (fun e -> ("entry", payload_of_entry e)) entries)

let decode_entries data =
  match Mdckpt.decode_container ~magic data with
  | Error _ as e -> e
  | Ok sections -> (
    try
      Ok
        (List.filter_map
           (fun (name, payload) ->
             if name <> "entry" then None
             else Some (dec_entry (Wire.reader payload)))
           sections)
    with Mdckpt.Corrupt msg -> Error msg)

(* Load what is reusable from an existing manifest: entries under a
   different configuration key are dropped (the file is then rewritten
   on the first [record]), and an unreadable or corrupt file is rejected
   with a one-line diagnostic and treated as empty — resuming from
   nothing is always safe.  The manifest is single-writer: a [lockf]
   guard on [path ^ ".lock"] is taken here and held until {!close}, so
   two concurrent report runs can never interleave atomic rewrites of
   the same file — the second acquirer gets a one-line [Error]. *)
let load_or_create ~path ~key =
  match Mdckpt.Lock.acquire ~path:(path ^ ".lock") with
  | Error msg ->
    Error (Printf.sprintf "manifest %s: %s" path msg)
  | Ok flock ->
    let entries = Hashtbl.create 16 in
    (if Sys.file_exists path then
       match In_channel.with_open_bin path In_channel.input_all with
       | exception Sys_error msg ->
         Printf.eprintf "mdsim: ignoring manifest %s: %s\n%!" path msg
       | data -> (
         match decode_entries data with
         | Error msg ->
           Printf.eprintf "mdsim: ignoring manifest %s: %s\n%!" path msg
         | Ok es ->
           List.iter
             (fun e ->
               if e.ent_key = key then Hashtbl.replace entries e.ent_id e)
             es));
    Ok { path; key; lock = Mutex.create (); flock; entries }

let close t = Mdckpt.Lock.release t.flock

let find t id =
  Mutex.lock t.lock;
  let e = Hashtbl.find_opt t.entries id in
  Mutex.unlock t.lock;
  match e with Some e when reusable e -> Some e | _ -> None

let entry_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.entries in
  Mutex.unlock t.lock;
  n

(* Record (or replace) one entry and rewrite the file atomically.
   Experiments finish concurrently on the Mdpar pool, so the write is
   serialized under the manifest lock; entries are persisted sorted by
   id so the bytes are independent of completion order. *)
let record t entry =
  let entry = { entry with ent_key = t.key } in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      Hashtbl.replace t.entries entry.ent_id entry;
      let es =
        List.sort
          (fun a b -> compare a.ent_id b.ent_id)
          (Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [])
      in
      Mdio.write_atomic ~path:t.path (encode_entries es))
