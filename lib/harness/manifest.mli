(** Durable run manifest for classified report runs.

    `mdsim experiment --manifest FILE` records each experiment's
    classified result as it finishes; an interrupted run restarted with
    the same manifest reuses every finished ([ok]/[recovered]) entry and
    re-runs only what is missing — plus every [degraded]/[failed] entry
    (deadline aborts included), which get another chance with the time
    the finished entries no longer consume.

    The file (schema mdsim-manifest-v1) shares the checkpoint layer's
    container: CRC-32 checksummed sections, atomic tmp+fsync+rename
    replace.  Corrupt or foreign files are rejected with a one-line
    diagnostic and treated as empty.  Entries are keyed by a run
    configuration string (scale key + fault spec), so a manifest from a
    different configuration never satisfies a resume. *)

type entry = {
  ent_id : string;            (** experiment id *)
  ent_key : string;           (** configuration key at record time *)
  ent_status : string;        (** "ok" | "recovered" | "degraded" | "failed" *)
  ent_error : string option;
  ent_faults : Mdfault.summary;
  ent_outcome : Experiment.outcome;
}

type t

val load_or_create : path:string -> key:string -> (t, string) result
(** Open [path] (which need not exist yet), keeping only entries
    recorded under [key].  Takes the single-writer [lockf] guard on
    [path ^ ".lock"], held until {!close}: a second concurrent opener —
    same process or another — gets a one-line [Error] instead of a
    manifest whose rewrites would interleave. *)

val close : t -> unit
(** Release the single-writer guard (the entries stay usable in
    memory, but further {!record} calls are the caller's risk). *)

val find : t -> string -> entry option
(** The reusable entry for an experiment id, if any. *)

val record : t -> entry -> unit
(** Add/replace the entry (stamped with the manifest's key) and
    atomically rewrite the file.  Thread-safe; the on-disk entry order
    is sorted by id, independent of completion order. *)

val entry_count : t -> int

(**/**)

