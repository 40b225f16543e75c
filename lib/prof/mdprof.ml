type clock = Mdobs.clock = Virtual | Host

type kind = Counter | Gauge | Histogram

(* One mutable cell per registered instrument.  Updates are plain
   unlocked stores: each cell has a single logical writer (machine
   simulators are single-threaded per machine), mirroring the virtual
   track contract in Mdobs.  The registry mutex only guards
   registration and snapshots. *)
type cell = {
  c_name : string;
  c_clock : clock;
  c_unit : string;
  c_kind : kind;
  mutable c_value : float;
  mutable c_hwm : float;
  c_bounds : float array; (* histogram upper bounds; [||] otherwise *)
  c_counts : int array; (* length = Array.length c_bounds + 1 *)
  mutable c_obs : int;
  mutable c_sum : float;
  c_live : bool; (* false for the shared disabled dummies *)
}

type counter = cell
type gauge = cell
type histogram = cell

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let clear () =
  disable ();
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex

let make_cell ~live ~name ~clock ~unit_ ~kind ~bounds =
  {
    c_name = name;
    c_clock = clock;
    c_unit = unit_;
    c_kind = kind;
    c_value = 0.;
    c_hwm = 0.;
    c_bounds = bounds;
    c_counts =
      (if kind = Histogram then Array.make (Array.length bounds + 1) 0
       else [||]);
    c_obs = 0;
    c_sum = 0.;
    c_live = live;
  }

let dummy_counter =
  make_cell ~live:false ~name:"" ~clock:Virtual ~unit_:"" ~kind:Counter
    ~bounds:[||]

let dummy_gauge =
  make_cell ~live:false ~name:"" ~clock:Virtual ~unit_:"" ~kind:Gauge
    ~bounds:[||]

let dummy_histogram =
  make_cell ~live:false ~name:"" ~clock:Virtual ~unit_:"" ~kind:Histogram
    ~bounds:[| 1. |]

let scoped base =
  match Mdobs.current_scope () with "" -> base | s -> s ^ "/" ^ base

let kind_str = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* Get-or-create: counters accumulate across repeated constructions
   under one scope (no #n suffixes, unlike Mdobs tracks). *)
let register ?(unit_ = "") ~clock ~kind ~bounds base =
  let name = scoped base in
  Mutex.lock registry_mutex;
  let cell =
    match Hashtbl.find_opt registry name with
    | Some c ->
        if c.c_kind <> kind then (
          Mutex.unlock registry_mutex;
          invalid_arg
            (Printf.sprintf "Mdprof: %S already registered as a %s" name
               (kind_str c.c_kind)));
        if kind = Histogram && c.c_bounds <> bounds then (
          Mutex.unlock registry_mutex;
          invalid_arg
            (Printf.sprintf "Mdprof: histogram %S bucket bounds differ" name));
        c
    | None ->
        let c = make_cell ~live:true ~name ~clock ~unit_ ~kind ~bounds in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock registry_mutex;
  cell

let counter ?unit_ ~clock base =
  if not (enabled ()) then dummy_counter
  else register ?unit_ ~clock ~kind:Counter ~bounds:[||] base

let gauge ?unit_ ~clock base =
  if not (enabled ()) then dummy_gauge
  else register ?unit_ ~clock ~kind:Gauge ~bounds:[||] base

let check_bounds bounds =
  if Array.length bounds = 0 then
    invalid_arg "Mdprof.histogram: empty bucket bounds";
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg "Mdprof.histogram: bucket bounds must be strictly increasing"
  done

let histogram ?unit_ ~clock ~buckets base =
  check_bounds buckets;
  if not (enabled ()) then dummy_histogram
  else register ?unit_ ~clock ~kind:Histogram ~bounds:(Array.copy buckets) base

let add c n = if c.c_live then c.c_value <- c.c_value +. float_of_int n
let add_f c x = if c.c_live then c.c_value <- c.c_value +. x
let incr c = add c 1

let set g x =
  if g.c_live then (
    g.c_value <- x;
    if x > g.c_hwm then g.c_hwm <- x)

let observe h x =
  if h.c_live then begin
    let n = Array.length h.c_bounds in
    let i = ref 0 in
    while !i < n && x > h.c_bounds.(!i) do
      Stdlib.incr i
    done;
    h.c_counts.(!i) <- h.c_counts.(!i) + 1;
    h.c_obs <- h.c_obs + 1;
    h.c_sum <- h.c_sum +. x
  end

(* {1 Snapshots} *)

type sample = {
  s_name : string;
  s_clock : clock;
  s_unit : string;
  s_kind : kind;
  s_value : float;
  s_high_water : float;
  s_buckets : (float * int) list;
  s_observations : int;
  s_sum : float;
}

let sample_of_cell c =
  {
    s_name = c.c_name;
    s_clock = c.c_clock;
    s_unit = c.c_unit;
    s_kind = c.c_kind;
    s_value = c.c_value;
    s_high_water = (if c.c_kind = Gauge then c.c_hwm else c.c_value);
    s_buckets =
      (if c.c_kind <> Histogram then []
       else
         List.init
           (Array.length c.c_counts)
           (fun i ->
             let bound =
               if i < Array.length c.c_bounds then c.c_bounds.(i) else infinity
             in
             (bound, c.c_counts.(i))));
    s_observations = c.c_obs;
    s_sum = c.c_sum;
  }

let clock_rank = function Virtual -> 0 | Host -> 1

let samples () =
  Mutex.lock registry_mutex;
  let cells = Hashtbl.fold (fun _ c acc -> c :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.map sample_of_cell cells
  |> List.sort (fun a b ->
         match compare (clock_rank a.s_clock) (clock_rank b.s_clock) with
         | 0 -> String.compare a.s_name b.s_name
         | c -> c)

let find name =
  Mutex.lock registry_mutex;
  let c = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mutex;
  Option.map sample_of_cell c

(* {1 Interval reads}

   A baseline table of the last-read cumulative values per instrument;
   [read] returns only what changed since, as delta samples, and
   advances the baseline.  The cells themselves are untouched, so
   cumulative exports keep working alongside streaming consumers. *)

module Interval = struct
  type baseline = {
    b_value : float;
    b_hwm : float;
    b_obs : int;
    b_sum : float;
    b_buckets : (float * int) list;
  }

  type t = (string, baseline) Hashtbl.t

  let baseline_of_sample s =
    { b_value = s.s_value;
      b_hwm = s.s_high_water;
      b_obs = s.s_observations;
      b_sum = s.s_sum;
      b_buckets = s.s_buckets }

  let zero =
    { b_value = 0.; b_hwm = 0.; b_obs = 0; b_sum = 0.; b_buckets = [] }

  let create () =
    let t = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.replace t s.s_name (baseline_of_sample s))
      (samples ());
    t

  let read ?(host = false) t =
    samples ()
    |> List.filter (fun s -> host || s.s_clock = Virtual)
    |> List.filter_map (fun s ->
           let prev =
             Option.value (Hashtbl.find_opt t s.s_name) ~default:zero
           in
           Hashtbl.replace t s.s_name (baseline_of_sample s);
           match s.s_kind with
           | Counter ->
             let d = s.s_value -. prev.b_value in
             if d = 0. then None
             else Some { s with s_value = d; s_high_water = d }
           | Gauge ->
             if s.s_value = prev.b_value && s.s_high_water = prev.b_hwm
             then None
             else Some s
           | Histogram ->
             let dobs = s.s_observations - prev.b_obs in
             if dobs = 0 then None
             else
               let prev_buckets =
                 if prev.b_buckets = [] then
                   List.map (fun (b, _) -> (b, 0)) s.s_buckets
                 else prev.b_buckets
               in
               Some
                 { s with
                   s_observations = dobs;
                   s_sum = s.s_sum -. prev.b_sum;
                   s_buckets =
                     List.map2
                       (fun (bound, c) (_, pc) -> (bound, c - pc))
                       s.s_buckets prev_buckets })
end

(* {1 Checkpoint capture}

   Virtual-clock cells only: they are the deterministic part of the
   registry (byte-identical across --domains and across identical
   runs), which keeps checkpoint files bitwise reproducible.  Host
   cells restart from zero after a resume, exactly like host trace
   tracks. *)

type cell_state = {
  p_name : string;
  p_unit : string;
  p_kind : kind;
  p_value : float;
  p_hwm : float;
  p_bounds : float array;
  p_counts : int array;
  p_obs : int;
  p_sum : float;
}

let capture_cells () =
  if not (enabled ()) then None
  else begin
    Mutex.lock registry_mutex;
    let cells = Hashtbl.fold (fun _ c acc -> c :: acc) registry [] in
    Mutex.unlock registry_mutex;
    Some
      (cells
      |> List.filter (fun c -> c.c_clock = Virtual)
      |> List.sort (fun a b -> String.compare a.c_name b.c_name)
      |> List.map (fun c ->
             { p_name = c.c_name;
               p_unit = c.c_unit;
               p_kind = c.c_kind;
               p_value = c.c_value;
               p_hwm = c.c_hwm;
               p_bounds = Array.copy c.c_bounds;
               p_counts = Array.copy c.c_counts;
               p_obs = c.c_obs;
               p_sum = c.c_sum }))
  end

let restore_cells states =
  enable ();
  Mutex.lock registry_mutex;
  List.iter
    (fun p ->
      let c =
        { c_name = p.p_name;
          c_clock = Virtual;
          c_unit = p.p_unit;
          c_kind = p.p_kind;
          c_value = p.p_value;
          c_hwm = p.p_hwm;
          c_bounds = Array.copy p.p_bounds;
          c_counts = Array.copy p.p_counts;
          c_obs = p.p_obs;
          c_sum = p.p_sum;
          c_live = true }
      in
      Hashtbl.replace registry p.p_name c)
    states;
  Mutex.unlock registry_mutex

(* {1 Derived metrics}

   Rules fire on name suffixes within a shared prefix: the counters a
   machine publishes under one scope combine into bandwidths,
   occupancies, and intensities without the machines knowing about
   each other. *)

let split_suffix name =
  match String.rindex_opt name '/' with
  | None -> ("", name)
  | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

let derived_of_samples ss =
  let by_name = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_name s.s_name s) ss;
  let sibling prefix base =
    Hashtbl.find_opt by_name
      (if prefix = "" then base else prefix ^ "/" ^ base)
  in
  let out = ref [] in
  let emit name value unit_ = out := (name, value, unit_) :: !out in
  List.iter
    (fun s ->
      let prefix, base = split_suffix s.s_name in
      let qual b = if prefix = "" then b else prefix ^ "/" ^ b in
      (match (s.s_kind, base) with
      | Counter, "dma_bytes" -> (
          match sibling prefix "dma_seconds" with
          | Some t when t.s_value > 0. ->
              emit (qual "dma_bandwidth") (s.s_value /. t.s_value) "bytes/s"
          | _ -> ())
      | Counter, "pcie_bytes_up" -> (
          match
            (sibling prefix "pcie_bytes_down", sibling prefix "virtual_seconds")
          with
          | Some down, Some t when t.s_value > 0. ->
              emit (qual "pcie_bandwidth")
                ((s.s_value +. down.s_value) /. t.s_value)
                "bytes/s"
          | _ -> ())
      | Counter, "spe_busy_seconds" -> (
          match sibling prefix "spe_window_seconds" with
          | Some w when w.s_value > 0. ->
              emit (qual "spe_occupancy") (s.s_value /. w.s_value) "ratio"
          | _ -> ())
      | Counter, "flops" ->
          (match sibling prefix "virtual_seconds" with
          | Some t when t.s_value > 0. ->
              emit (qual "mflops") (s.s_value /. t.s_value /. 1e6) "Mflop/s"
          | _ -> ());
          (match sibling prefix "mem_bytes" with
          | Some b when b.s_value > 0. ->
              emit (qual "arith_intensity") (s.s_value /. b.s_value)
                "flops/byte"
          | _ -> ())
      | _ -> ());
      if s.s_kind = Histogram && s.s_observations > 0 then
        emit (s.s_name ^ "/mean")
          (s.s_sum /. float_of_int s.s_observations)
          s.s_unit)
    ss;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !out

let derived ?(host = false) () =
  derived_of_samples
    (samples () |> List.filter (fun s -> host || s.s_clock = Virtual))

(* {1 Export} *)

let clock_str = function Virtual -> "virtual" | Host -> "host"

let json_of_sample b s =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"clock\":\"%s\",\"kind\":\"%s\""
       (Mdobs.json_escape s.s_name)
       (clock_str s.s_clock) (kind_str s.s_kind));
  if s.s_unit <> "" then
    Buffer.add_string b
      (Printf.sprintf ",\"unit\":\"%s\"" (Mdobs.json_escape s.s_unit));
  (match s.s_kind with
  | Counter ->
      Buffer.add_string b
        (Printf.sprintf ",\"value\":%s" (Mdobs.json_float s.s_value))
  | Gauge ->
      Buffer.add_string b
        (Printf.sprintf ",\"value\":%s,\"high_water\":%s"
           (Mdobs.json_float s.s_value)
           (Mdobs.json_float s.s_high_water))
  | Histogram ->
      Buffer.add_string b
        (Printf.sprintf ",\"observations\":%d,\"sum\":%s,\"buckets\":["
           s.s_observations (Mdobs.json_float s.s_sum));
      List.iteri
        (fun i (bound, count) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"le\":%s,\"count\":%d}" (Mdobs.json_float bound)
               count))
        s.s_buckets;
      Buffer.add_char b ']');
  Buffer.add_char b '}'

let to_json ?(host = false) () =
  let ss = samples () |> List.filter (fun s -> host || s.s_clock = Virtual) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"mdsim-counters-v1\",\n\"counters\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      json_of_sample b s)
    ss;
  Buffer.add_string b "\n],\n\"derived\":[\n";
  List.iteri
    (fun i (name, value, unit_) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"value\":%s,\"unit\":\"%s\"}"
           (Mdobs.json_escape name) (Mdobs.json_float value)
           (Mdobs.json_escape unit_)))
    (derived ~host ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let to_csv ?(host = false) () =
  let ss = samples () |> List.filter (fun s -> host || s.s_clock = Virtual) in
  let b = Buffer.create 2048 in
  Buffer.add_string b "name,clock,kind,unit,value,high_water,observations,sum\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%s,%s,%.17g,%.17g,%d,%.17g\n" s.s_name
           (clock_str s.s_clock) (kind_str s.s_kind) s.s_unit s.s_value
           s.s_high_water s.s_observations s.s_sum))
    ss;
  Buffer.contents b

let virtual_counters_string () =
  let b = Buffer.create 2048 in
  samples ()
  |> List.filter (fun s -> s.s_clock = Virtual)
  |> List.iter (fun s ->
         Buffer.add_string b
           (Printf.sprintf "%s|%s|%.17g|%.17g|%d|%.17g" s.s_name
              (kind_str s.s_kind) s.s_value s.s_high_water s.s_observations
              s.s_sum);
         List.iter
           (fun (bound, count) ->
             Buffer.add_string b (Printf.sprintf "|%.17g:%d" bound count))
           s.s_buckets;
         Buffer.add_char b '\n');
  Buffer.contents b

(* Pretty numbers for the text report: counts print as integers,
   everything else with enough digits to be useful. *)
let pretty x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let top_prefix name =
  match String.index_opt name '/' with
  | None -> name
  | Some i -> String.sub name 0 i

let render () =
  let ss = samples () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "== mdsim profile ==\n";
  let last_group = ref None in
  List.iter
    (fun s ->
      let group =
        Printf.sprintf "%s [%s]" (top_prefix s.s_name) (clock_str s.s_clock)
      in
      if !last_group <> Some group then (
        Buffer.add_string b (Printf.sprintf "\n%s\n" group);
        last_group := Some group);
      let detail =
        match s.s_kind with
        | Counter -> pretty s.s_value
        | Gauge ->
            Printf.sprintf "%s (peak %s)" (pretty s.s_value)
              (pretty s.s_high_water)
        | Histogram ->
            let bs =
              s.s_buckets
              |> List.filter (fun (_, c) -> c > 0)
              |> List.map (fun (bound, count) ->
                     if bound = infinity then Printf.sprintf "inf:%d" count
                     else Printf.sprintf "%s:%d" (pretty bound) count)
              |> String.concat " "
            in
            Printf.sprintf "n=%d sum=%s [%s]" s.s_observations (pretty s.s_sum)
              bs
      in
      Buffer.add_string b
        (Printf.sprintf "  %-44s %18s %s\n" s.s_name detail s.s_unit))
    ss;
  let ds = derived ~host:true () in
  if ds <> [] then begin
    Buffer.add_string b "\nderived\n";
    List.iter
      (fun (name, value, unit_) ->
        Buffer.add_string b
          (Printf.sprintf "  %-44s %18s %s\n" name (pretty value) unit_))
      ds
  end;
  Buffer.contents b
