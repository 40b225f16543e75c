(* Observability layer: spans, instants and counters over two clock
   domains, with pluggable sinks and a Chrome trace-event exporter.

   Load-bearing design choices:

   - Recording is off by default and every instrumentation site guards on
     a single atomic flag, so a disabled build pays one load per probe
     and allocates nothing ([new_track] hands back a shared dummy).
   - Events live in per-track order.  A track belongs to exactly one
     clock domain; virtual-time tracks are only ever appended to by the
     (single-threaded) machine simulator that owns them, so their event
     sequences are a pure function of the simulated program — identical
     for any host pool size.  Host-time tracks (Mdpar regions, pairlist
     rebuilds, wall clocks) make no such promise and are therefore kept
     out of {!virtual_events_string} and sorted after the virtual tracks
     in the exported JSON.
   - Track names are [scope/base] plus a per-name instance suffix.  The
     scope is domain-local state set by the harness (experiment id, memo
     key), which keeps names deterministic even when experiments are
     scheduled onto different pool workers between runs. *)

type clock = Virtual | Host

type value = Int of int | Float of float | Str of string

type phase = Span of float (* duration, seconds *) | Instant | Counter of float

type track = {
  tname : string;
  clock : clock;
  mutable seq : int;  (* per-track emission index, under the global lock *)
  dummy : bool;       (* unregistered; emissions are dropped *)
}

type event = {
  track_name : string;
  ev_clock : clock;
  ev_name : string;
  ev_phase : phase;
  ts : float;  (* seconds in the track's clock domain *)
  seq : int;
  args : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  type t =
    | Noop
    | Memory of event list ref  (* newest first *)
    | Ring of {
        cap : int;
        buf : event option array;
        mutable head : int;
        mutable dropped : int;  (* events overwritten since enable *)
      }

  let noop = Noop
  let memory () = Memory (ref [])

  let ring ~capacity =
    if capacity <= 0 then invalid_arg "Mdobs.Sink.ring: capacity must be positive";
    Ring { cap = capacity; buf = Array.make capacity None; head = 0; dropped = 0 }

  let push t ev =
    match t with
    | Noop -> ()
    | Memory r -> r := ev :: !r
    | Ring r ->
      if r.buf.(r.head) <> None then r.dropped <- r.dropped + 1;
      r.buf.(r.head) <- Some ev;
      r.head <- (r.head + 1) mod r.cap

  let dropped = function Noop | Memory _ -> 0 | Ring r -> r.dropped

  let contents t =
    match t with
    | Noop -> []
    | Memory r -> List.rev !r
    | Ring r ->
      (* oldest-to-newest: head points at the next overwrite slot *)
      let out = ref [] in
      for k = r.cap - 1 downto 0 do
        match r.buf.((r.head + k) mod r.cap) with
        | Some ev -> out := ev :: !out
        | None -> ()
      done;
      !out
end

(* ------------------------------------------------------------------ *)
(* Global recorder state                                               *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let sink = ref Sink.Noop
let name_counts : (string, int) Hashtbl.t = Hashtbl.create 32
let host_epoch = ref 0.0

let enabled () = Atomic.get enabled_flag

let enable s =
  Mutex.lock lock;
  sink := s;
  host_epoch := Unix.gettimeofday ();
  Mutex.unlock lock;
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let clear () =
  Atomic.set enabled_flag false;
  Mutex.lock lock;
  sink := Sink.Noop;
  Hashtbl.reset name_counts;
  Mutex.unlock lock

let host_now () = Unix.gettimeofday () -. !host_epoch

(* ------------------------------------------------------------------ *)
(* Scopes (domain-local)                                               *)
(* ------------------------------------------------------------------ *)

let scope_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let current_scope () = Domain.DLS.get scope_key

let with_scope name f =
  let saved = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key name;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key saved) f

(* ------------------------------------------------------------------ *)
(* Tracks and emission                                                 *)
(* ------------------------------------------------------------------ *)

let dummy_track = { tname = ""; clock = Host; seq = 0; dummy = true }

let new_track ~clock base =
  if not (enabled ()) then dummy_track
  else begin
    let scope = current_scope () in
    let full = if scope = "" then base else scope ^ "/" ^ base in
    Mutex.lock lock;
    let n = Option.value (Hashtbl.find_opt name_counts full) ~default:0 in
    Hashtbl.replace name_counts full (n + 1);
    Mutex.unlock lock;
    let tname = if n = 0 then full else Printf.sprintf "%s#%d" full n in
    { tname; clock; seq = 0; dummy = false }
  end

let track_name t = t.tname

let emit t ~name ~phase ~ts args =
  if (not t.dummy) && enabled () then begin
    Mutex.lock lock;
    let seq = t.seq in
    t.seq <- seq + 1;
    Sink.push !sink
      { track_name = t.tname;
        ev_clock = t.clock;
        ev_name = name;
        ev_phase = phase;
        ts;
        seq;
        args };
    Mutex.unlock lock
  end

let span t ~name ~ts ~dur ?(args = []) () =
  emit t ~name ~phase:(Span dur) ~ts args

let instant t ~name ~ts ?(args = []) () = emit t ~name ~phase:Instant ~ts args

let counter t ~name ~ts v = emit t ~name ~phase:(Counter v) ~ts []

let host_span t ~name ?(args = []) f =
  if t.dummy || not (enabled ()) then f ()
  else begin
    let t0 = host_now () in
    Fun.protect
      ~finally:(fun () -> span t ~name ~ts:t0 ~dur:(host_now () -. t0) ~args ())
      f
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Deterministic order: virtual tracks before host tracks, tracks by
   name, events by per-track sequence. *)
let compare_events a b =
  let clock_rank = function Virtual -> 0 | Host -> 1 in
  let c = compare (clock_rank a.ev_clock) (clock_rank b.ev_clock) in
  if c <> 0 then c
  else begin
    let c = String.compare a.track_name b.track_name in
    if c <> 0 then c else compare a.seq b.seq
  end

let events () =
  Mutex.lock lock;
  let evs = Sink.contents !sink in
  Mutex.unlock lock;
  List.stable_sort compare_events evs

let dropped_events () =
  Mutex.lock lock;
  let d = Sink.dropped !sink in
  Mutex.unlock lock;
  d

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

(* %.17g round-trips doubles exactly, so formatting is as deterministic
   as the value itself.  JSON has no notion of infinity/NaN; clamp to
   strings so an exporter never emits invalid JSON. *)
let json_float v =
  if Float.is_nan v then "\"nan\""
  else if v = infinity then "\"inf\""
  else if v = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" v

let json_value = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> json_string s

let json_args args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v))
       args)

let usec s = s *. 1e6

(* Track ids: virtual tracks get tids 1.. in name order, then host
   tracks — so virtual tids never depend on how many host tracks a given
   pool size created. *)
let assign_tids evs =
  let tbl = Hashtbl.create 32 in
  let next = ref 1 in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem tbl ev.track_name) then begin
        Hashtbl.add tbl ev.track_name !next;
        incr next
      end)
    evs;
  tbl

let to_chrome_json ?(virtual_only = false) () =
  let evs = events () in
  let evs =
    if virtual_only then List.filter (fun e -> e.ev_clock = Virtual) evs
    else evs
  in
  let tids = assign_tids evs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let add_line line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  let pid = function Virtual -> 1 | Host -> 2 in
  add_line
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"virtual time\"}}";
  if not virtual_only then
    add_line
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"host time\"}}";
  (* An overflowed ring sink silently forgot its oldest events; say so in
     the trace itself so a truncated export is self-describing. *)
  let dropped = dropped_events () in
  if dropped > 0 then
    add_line
      (Printf.sprintf
         "{\"name\":\"dropped_events\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"count\":%d}}"
         dropped);
  (* thread_name metadata, one per track, in tid order *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem seen ev.track_name) then begin
        Hashtbl.add seen ev.track_name ();
        add_line
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             (pid ev.ev_clock)
             (Hashtbl.find tids ev.track_name)
             (json_escape ev.track_name))
      end)
    evs;
  List.iter
    (fun ev ->
      let tid = Hashtbl.find tids ev.track_name in
      let common =
        Printf.sprintf "\"pid\":%d,\"tid\":%d,\"ts\":%s" (pid ev.ev_clock) tid
          (json_float (usec ev.ts))
      in
      let cat = match ev.ev_clock with Virtual -> "virtual" | Host -> "host" in
      let line =
        match ev.ev_phase with
        | Span dur ->
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",%s,\"dur\":%s,\"args\":{%s}}"
            (json_escape ev.ev_name) cat common
            (json_float (usec dur))
            (json_args ev.args)
        | Instant ->
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{%s}}"
            (json_escape ev.ev_name) cat common (json_args ev.args)
        | Counter v ->
          Printf.sprintf
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",%s,\"args\":{\"value\":%s}}"
            (json_escape ev.ev_name) cat common (json_float v)
      in
      add_line line)
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let string_of_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Str s -> s

let virtual_events_string () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      if ev.ev_clock = Virtual then begin
        let ph, extra =
          match ev.ev_phase with
          | Span d -> ("X", Printf.sprintf "%.17g" d)
          | Instant -> ("i", "")
          | Counter v -> ("C", Printf.sprintf "%.17g" v)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s|%d|%s|%s|%.17g|%s|%s\n" ev.track_name ev.seq
             ev.ev_name ph ev.ts extra
             (String.concat ","
                (List.map
                   (fun (k, v) -> k ^ "=" ^ string_of_value v)
                   ev.args)))
      end)
    (events ());
  Buffer.contents buf
