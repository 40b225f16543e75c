(** Serve wire protocol: one JSON request per connection, one JSON
    reply, over a Unix-domain stream socket.

    Requests are single-line JSON objects with an ["op"] field —
    [ping], [submit] (jobspec fields at top level, absent fields take
    submit defaults), [status] (optionally one ["job"]), [cancel],
    [tail], [drain].  Fields are read with {!Ledger}'s strict readers,
    so a present field of the wrong type is [Error "bad request: ..."]
    naming it.  Replies are [{"ok":true,...}] or
    [{"ok":false,"error":"..."}]. *)

type request =
  | Ping
  | Submit of Ledger.jobspec
  | Status of string option
  | Cancel of string
  | Tail of string * int  (** job ("" = all), limit *)
  | Drain

val parse_request : string -> (request, string) result

val ok_reply : string -> string
(** [ok_reply fields] is [{"ok":true,<fields>}]; [""] for a bare ok. *)

val error_reply : string -> string

val roundtrip :
  ?retries:int -> ?timeout:float -> socket:string -> string ->
  (string, string) result
(** Client side: send one request line to the daemon socket, return the
    reply line.  Transient connect failures — the socket not bound yet
    (ENOENT), the daemon not accepting (ECONNREFUSED), or a reset —
    are retried up to [retries] times (default 0) with exponential
    backoff from 50 ms, bounded by [timeout] seconds (default 10) for
    the whole window; non-transient errors fail immediately. *)
