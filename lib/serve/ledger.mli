(** Durable append-only job ledger (schema mdsim-ledger-v1).

    One JSON record per line: schema tag, monotone sequence number, the
    event, and a CRC-32 of the record body (computed without the [crc]
    field itself).  Appends are a single [write(2)] on an [O_APPEND]
    descriptor followed by [fsync], and are issued only {e after} the
    checkpoint generation backing the recorded progress is durable — so
    the ledger never claims progress the checkpoint store cannot back,
    and a crash (kill -9 included) can tear at most the final record,
    which {!replay_string} detects by CRC and drops. *)

type jobspec = {
  js_id : string;
  js_tenant : string;
  js_priority : int;          (** scheduler quantum: consecutive segments *)
  js_device : string;         (** CLI device name, e.g. ["cell"] *)
  js_atoms : int;
  js_steps : int;
  js_seed : int;
  js_density : float;
  js_temperature : float;
  js_engine : string;         (** ["default"] | ["pairlist"] | ["n2"] *)
  js_skin : float;
  js_every : int;             (** checkpoint segment length, steps *)
  js_keep : int;              (** checkpoint generations kept *)
  js_faults : string option;  (** Mdfault plan spec, verbatim *)
  js_deadline : float option; (** host-seconds budget across all segments *)
  js_telemetry : bool;
  js_tel_every : int;
}

type event =
  | Submitted of jobspec
  | Resumed of { ev_job : string; ev_completed : int }
      (** a restart re-adopted the job at this checkpoint generation *)
  | Segment of { ev_job : string; ev_completed : int; ev_total : int }
  | Retrying of { ev_job : string; ev_attempt : int; ev_reason : string }
  | Done of { ev_job : string; ev_status : string; ev_completed : int }
  | Cancelled of { ev_job : string; ev_completed : int }
  | Failed of { ev_job : string; ev_reason : string; ev_completed : int }
  | Degraded of { ev_job : string; ev_reason : string; ev_completed : int }
  | Drained of { ev_job : string; ev_completed : int }
      (** graceful shutdown checkpointed the job for a later restart *)

val encode_line : seq:int -> event -> string
(** One ledger line (no trailing newline), CRC included. *)

val verify_line : string -> (Sim_util.Minijson.t, string) result
(** Schema + CRC check of one line. *)

val event_of_json : Sim_util.Minijson.t -> (event, string) result

(** {1 Field readers}

    One strict set, shared by replay and the wire protocol.  An absent
    or [null] field reads as [None].  A present field of another type,
    or a number where an exact integer (|n| <= 2{^53}) is expected,
    raises {!Bad_field}: a mistyped field never turns into a default. *)

exception Bad_field of string
(** ["<field> must be <type>"]. *)

val str_field : Sim_util.Minijson.t -> string -> string option
val int_field : Sim_util.Minijson.t -> string -> int option

val spec_of_json : id:string -> Sim_util.Minijson.t -> jobspec
(** Decode a spec object, filling absent fields with the submit
    defaults (tenant "default", 256 atoms, 100 steps, segment 25, ...);
    raises {!Bad_field} on a mistyped one.  Also used by the wire
    protocol, whose submit request carries the same field names. *)

(** {1 Replay} *)

type job_view = {
  v_spec : jobspec;
  v_completed : int;          (** newest ledger-backed completed step *)
  v_attempts : int;
  v_terminal : string option; (** ok|recovered|degraded|failed|cancelled *)
}

type replay = {
  r_jobs : job_view list;     (** submit order *)
  r_next_seq : int;
  r_notes : string list;      (** dropped/suspect records, oldest first *)
}

val replay_string : string -> replay
(** Reconstruct queue state from ledger bytes.  A torn final record is
    tolerated and noted; interior corruption is noted and skipped.
    Drained jobs stay non-terminal — they are exactly what a
    [--resume-queue] restart re-adopts. *)

val replay_file : string -> replay
(** [replay_string] on the file's contents; empty replay if absent. *)

val read_file : string -> string

val tail_lines : string -> job:string -> limit:int -> string list
(** Last [limit] intact records mentioning [job] ([""] = all jobs),
    oldest first. *)

(** {1 Writer} *)

exception Write_failed of string
(** An append could not be made durable: the write or fsync failed
    [append_attempts] times in a row (injected or real).  The writer is
    left poisoned — the next append truncate-repairs the tail first —
    and the caller must not ack the record. *)

type writer

val open_writer : path:string -> next_seq:int -> writer
(** Open for appending (through the {!Mdio} shim).  A torn final record
    left by a crash — the bytes after the last newline — is truncated
    away first, so torn tails stay confined to the final position
    instead of being buried mid-file by later appends. *)

val append : writer -> event -> unit
(** One shimmed write + fsync.  On failure: poison, truncate back to
    the last durable good tail, retry (bounded); raises {!Write_failed}
    when the budget is exhausted — a failed fsync is never swallowed,
    so the daemon can never ack a record the platter doesn't have.
    {!Mdio.Crashed} propagates untouched. *)

val close_writer : writer -> unit
