(** Low-overhead tracing and metrics for the simulators and the host
    harness.

    Two clock domains coexist in one trace:

    - {b Virtual} time — the simulated machine clocks (Cell, GPU, MTA).
      Virtual events are a pure function of the simulated program: for a
      fixed workload they are byte-identical regardless of the host pool
      size ([--domains]), which extends the repo's determinism guarantee
      to traces (see {!virtual_events_string}).
    - {b Host} time — wall-clock seconds since {!enable}: Mdpar regions,
      pairlist rebuilds, experiment wall time.  These depend on real
      scheduling and are excluded from all determinism checks.

    Recording is disabled by default; every probe site guards on one
    atomic flag, so the instrumented hot paths cost a single load when
    tracing is off.  Enable tracing {e before} creating machines/pools —
    tracks made while disabled are inert dummies. *)

type clock = Virtual | Host

type value = Int of int | Float of float | Str of string

type phase = Span of float  (** duration, seconds *) | Instant | Counter of float

type track
(** A named event stream (one Chrome trace "thread").  A track lives in
    exactly one clock domain and must be appended to by one logical
    writer at a time (machine simulators are single-threaded per machine,
    which guarantees this for virtual tracks). *)

type event = {
  track_name : string;
  ev_clock : clock;
  ev_name : string;
  ev_phase : phase;
  ts : float;  (** seconds in the track's clock domain *)
  seq : int;   (** per-track emission index *)
  args : (string * value) list;
}

(** {1 Sinks} *)

module Sink : sig
  type t

  val noop : t
  (** Drops everything (the default). *)

  val memory : unit -> t
  (** Unbounded in-memory buffer; feeds the exporters. *)

  val ring : capacity:int -> t
  (** Bounded buffer keeping the newest [capacity] events.  Lossy:
      determinism guarantees do not survive overflow, but the overflow
      is counted (see {!dropped_events}) so truncated traces are
      self-describing.  Raises [Invalid_argument] on non-positive
      capacity. *)
end

(** {1 Recorder lifecycle} *)

val enabled : unit -> bool
val enable : Sink.t -> unit
(** Install a sink, reset the host epoch, and turn recording on. *)

val disable : unit -> unit
(** Stop recording; the sink keeps its events (for export). *)

val clear : unit -> unit
(** Disable, drop the sink and all events, and reset track-name
    instance counters (so a fresh run reproduces the same names). *)

val host_now : unit -> float
(** Host seconds since {!enable}. *)

(** {1 Scopes}

    Track names are [scope/base].  The scope is domain-local, so the
    harness can label everything an experiment (or a memoized shared
    computation) creates with a deterministic prefix, independent of
    which pool worker runs it. *)

val with_scope : string -> (unit -> 'a) -> 'a
val current_scope : unit -> string

(** {1 Tracks and events} *)

val new_track : clock:clock -> string -> track
(** Register [scope/base] (with a [#n] suffix for repeat names).  When
    recording is disabled this returns an inert dummy whose emissions
    are dropped forever — create tracks after {!enable}. *)

val track_name : track -> string

val span : track -> name:string -> ts:float -> dur:float ->
  ?args:(string * value) list -> unit -> unit

val instant : track -> name:string -> ts:float ->
  ?args:(string * value) list -> unit -> unit

val counter : track -> name:string -> ts:float -> float -> unit

val host_span : track -> name:string -> ?args:(string * value) list ->
  (unit -> 'a) -> 'a
(** Run the thunk and record a host-clock span around it (a plain call
    when disabled). *)

(** {1 Export} *)

val events : unit -> event list
(** All recorded events in deterministic order: virtual tracks before
    host tracks, tracks by name, events by sequence. *)

val dropped_events : unit -> int
(** Events lost to ring-sink overflow since {!enable} (0 for the noop
    and memory sinks).  When positive, {!to_chrome_json} also records
    it as a [dropped_events] metadata event. *)

val to_chrome_json : ?virtual_only:bool -> unit -> string
(** Chrome trace-event JSON ([chrome://tracing] / Perfetto): pid 1 is
    virtual time, pid 2 host time; one tid per track (virtual tracks
    numbered first so their ids are pool-size invariant); spans are
    ["ph":"X"], instants ["ph":"i"], counters ["ph":"C"].  Timestamps
    are microseconds. *)

val virtual_events_string : unit -> string
(** Canonical dump of only the virtual-clock events — the byte-identical
    artifact the determinism tests compare across pool sizes. *)

val json_escape : string -> string
(** JSON string escaping, shared with the metrics writers. *)

val json_string : string -> string
(** A quoted, escaped JSON string. *)

val json_float : float -> string
(** A JSON number printed with [%.17g], which round-trips every finite
    double; NaN and the infinities become the strings ["nan"], ["inf"]
    and ["-inf"]. *)
