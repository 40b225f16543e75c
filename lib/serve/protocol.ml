(* The serve wire protocol: one JSON request per connection, one JSON
   reply, over a Unix-domain stream socket.

     {"op":"ping"}
     {"op":"submit","id":"eq-1","tenant":"alice","atoms":256,...}
     {"op":"status"}            {"op":"status","job":"eq-1"}
     {"op":"cancel","job":"eq-1"}
     {"op":"tail","job":"eq-1","limit":20}
     {"op":"drain"}

   Submit carries the jobspec fields at top level (same names as the
   ledger's [spec] object); absent fields take the submit defaults, and
   a field of the wrong type is a bad request naming it.  Replies are
   `{"ok":true,...}` or `{"ok":false,"error":"..."}`. *)

module Minijson = Sim_util.Minijson

type request =
  | Ping
  | Submit of Ledger.jobspec
  | Status of string option
  | Cancel of string
  | Tail of string * int
  | Drain

let request_of_json j =
  let str = Ledger.str_field j in
  match str "op" with
  | Some "ping" -> Ok Ping
  | Some "submit" ->
    let id = Option.value ~default:"" (str "id") in
    Ok (Submit (Ledger.spec_of_json ~id j))
  | Some "status" -> Ok (Status (str "job"))
  | Some "cancel" -> (
    match str "job" with
    | Some job -> Ok (Cancel job)
    | None -> Error "cancel needs a \"job\" field")
  | Some "tail" ->
    Ok
      (Tail
         ( Option.value ~default:"" (str "job"),
           Option.value ~default:20 (Ledger.int_field j "limit") ))
  | Some "drain" -> Ok Drain
  | Some other -> Error (Printf.sprintf "unknown op %S" other)
  | None -> Error "request without \"op\""

let parse_request line =
  match request_of_json (Minijson.parse line) with
  | r -> r
  | exception (Minijson.Parse_error msg | Ledger.Bad_field msg) ->
    Error ("bad request: " ^ msg)

let ok_reply fields =
  match fields with
  | "" -> "{\"ok\":true}"
  | f -> Printf.sprintf "{\"ok\":true,%s}" f

let error_reply msg =
  Printf.sprintf "{\"ok\":false,\"error\":\"%s\"}" (Mdobs.json_escape msg)

(* --- client side --- *)

(* A daemon that is starting up, restarting, or momentarily saturated
   shows up as ENOENT (socket not bound yet), ECONNREFUSED (bound but
   not accepting), or ECONNRESET; anything else (EACCES, ENOTSOCK, ...)
   is a real configuration error and retrying would only hide it. *)
let transient = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET -> true
  | _ -> false

let connect_with_retry ~retries ~timeout socket =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let backoff = 0.05 *. (2.0 ** float_of_int attempt) in
      if
        attempt >= retries
        || (not (transient e))
        || Unix.gettimeofday () +. backoff > deadline
      then
        Error
          (Printf.sprintf "cannot reach daemon at %s: %s%s" socket
             (Unix.error_message e)
             (if attempt > 0 then
                Printf.sprintf " (after %d connect attempts)" (attempt + 1)
              else ""))
      else begin
        Unix.sleepf backoff;
        go (attempt + 1)
      end
  in
  go 0

(* One request/one reply over the daemon socket.  Sends the line, half-
   closes, reads to the reply's newline (or EOF).  [retries] bounds
   exponential-backoff reconnects on transient connect failures;
   [timeout] caps the whole retry window in seconds. *)
let roundtrip ?(retries = 0) ?(timeout = 10.0) ~socket line =
  match connect_with_retry ~retries ~timeout socket with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let payload = Bytes.of_string (line ^ "\n") in
        let rec send off =
          if off < Bytes.length payload then
            send (off + Unix.write fd payload off (Bytes.length payload - off))
        in
        send 0;
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        let buf = Buffer.create 256 in
        let chunk = Bytes.create 4096 in
        let rec recv () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            if not (String.contains (Buffer.contents buf) '\n') then recv ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
        in
        recv ();
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> Ok (String.sub (Buffer.contents buf) 0 i)
        | None -> (
          match Buffer.contents buf with
          | "" -> Error "daemon closed the connection without a reply"
          | s -> Ok s))
