module Rng = Sim_util.Rng
module System = Mdcore.System
module Params = Mdcore.Params
module Verlet = Mdcore.Verlet
module Run_result = Mdports.Run_result

let schema = "mdsim-checkpoint-v1"
let magic = schema ^ "\n"

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3 / zlib polynomial, table-driven)                 *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Wire encoding: little-endian, 64-bit ints, bit-exact floats         *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

module Wire = struct
  let u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
  let i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
  let f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)
  let bool buf v = Buffer.add_char buf (if v then '\001' else '\000')

  let str buf s =
    i64 buf (String.length s);
    Buffer.add_string buf s

  let opt buf f = function
    | None -> bool buf false
    | Some v ->
      bool buf true;
      f buf v

  let list buf f xs =
    i64 buf (List.length xs);
    List.iter (f buf) xs

  let farr buf a =
    i64 buf (Array.length a);
    Array.iter (f64 buf) a

  (* Bigarray float64 streams.  The wire layout is identical to [farr]
     (LE i64 length, then raw IEEE-754 bits per element), so checkpoints
     written before the SoA buffers moved to bigarrays decode unchanged.
     The whole stream is staged into one [Bytes] — [set_int64_le] writes
     little-endian on any host — and appended in a single blit instead
     of going through the Buffer element by element. *)
  let fbuf buf (a : System.buf) =
    let n = Bigarray.Array1.dim a in
    i64 buf n;
    let bytes = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le bytes (8 * i)
        (Int64.bits_of_float (Bigarray.Array1.unsafe_get a i))
    done;
    Buffer.add_bytes buf bytes

  type reader = { data : string; mutable pos : int }

  let reader data = { data; pos = 0 }

  let need r n =
    if n < 0 || r.pos + n > String.length r.data then
      raise (Corrupt "truncated payload")

  let ru32 r =
    need r 4;
    let v = Int32.to_int (String.get_int32_le r.data r.pos) in
    r.pos <- r.pos + 4;
    v land 0xFFFFFFFF

  let ri64 r =
    need r 8;
    let v = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    v

  let rint r = Int64.to_int (ri64 r)
  let rf64 r = Int64.float_of_bits (ri64 r)

  let rbool r =
    need r 1;
    let c = r.data.[r.pos] in
    r.pos <- r.pos + 1;
    c <> '\000'

  let rstr r =
    let n = rint r in
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let ropt r f = if rbool r then Some (f r) else None

  let rlist r f =
    let n = rint r in
    if n < 0 || n > String.length r.data then
      raise (Corrupt "implausible list length");
    List.init n (fun _ -> f r)

  let rfarr r =
    let n = rint r in
    if n < 0 || n * 8 > String.length r.data - r.pos then
      raise (Corrupt "implausible array length");
    Array.init n (fun _ -> rf64 r)

  (* Decode straight into the destination buffer — no intermediate
     [float array].  Length must match the buffer exactly. *)
  let rfbuf r (dst : System.buf) =
    let n = rint r in
    if n <> Bigarray.Array1.dim dst then
      raise (Corrupt "coordinate array length");
    need r (8 * n);
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst i
        (Int64.float_of_bits (String.get_int64_le r.data (r.pos + (8 * i))))
    done;
    r.pos <- r.pos + (8 * n)
end

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

type progress = {
  seconds : float;
  breakdown : (string * float) list;
  pairs_evaluated : int;
  interactions : int;
  records : Verlet.step_record list;
  device_label : string;
}

let empty_progress =
  { seconds = 0.0;
    breakdown = [];
    pairs_evaluated = 0;
    interactions = 0;
    records = [];
    device_label = "" }

type t = {
  device : string;
  atoms : int;
  total_steps : int;
  completed : int;
  seed : int;
  density : float;
  temperature : float;
  engine : string;
  skin : float;
  every : int;
  keep : int;
  guard_restores : int;
  system : System.t;
  progress : progress;
  fault : Mdfault.state option;
  counters : Mdprof.cell_state list option;
}

(* --- section payloads --- *)

let enc_meta buf st =
  Wire.str buf st.device;
  Wire.i64 buf st.atoms;
  Wire.i64 buf st.total_steps;
  Wire.i64 buf st.completed;
  Wire.i64 buf st.seed;
  Wire.f64 buf st.density;
  Wire.f64 buf st.temperature;
  Wire.i64 buf st.every;
  Wire.i64 buf st.keep;
  Wire.i64 buf st.guard_restores;
  (* Force-engine fields ride at the tail of the meta section so a
     checkpoint written before they existed still decodes (the reader
     defaults them when the payload ends early). *)
  Wire.str buf st.engine;
  Wire.f64 buf st.skin

let enc_system buf (s : System.t) =
  Wire.i64 buf s.System.n;
  Wire.f64 buf s.System.box;
  let p = s.System.params in
  Wire.f64 buf p.Params.epsilon;
  Wire.f64 buf p.Params.sigma;
  Wire.f64 buf p.Params.cutoff;
  Wire.f64 buf p.Params.mass;
  Wire.f64 buf p.Params.dt;
  Wire.fbuf buf s.System.pos_x;
  Wire.fbuf buf s.System.pos_y;
  Wire.fbuf buf s.System.pos_z;
  Wire.fbuf buf s.System.vel_x;
  Wire.fbuf buf s.System.vel_y;
  Wire.fbuf buf s.System.vel_z;
  Wire.fbuf buf s.System.acc_x;
  Wire.fbuf buf s.System.acc_y;
  Wire.fbuf buf s.System.acc_z

let dec_system r =
  let n = Wire.rint r in
  let box = Wire.rf64 r in
  let epsilon = Wire.rf64 r in
  let sigma = Wire.rf64 r in
  let cutoff = Wire.rf64 r in
  let mass = Wire.rf64 r in
  let dt = Wire.rf64 r in
  let params = { Params.epsilon; sigma; cutoff; mass; dt } in
  let s = System.create ~n ~box ~params in
  let arr dst = Wire.rfbuf r dst in
  arr s.System.pos_x; arr s.System.pos_y; arr s.System.pos_z;
  arr s.System.vel_x; arr s.System.vel_y; arr s.System.vel_z;
  arr s.System.acc_x; arr s.System.acc_y; arr s.System.acc_z;
  s

let enc_record buf (r : Verlet.step_record) =
  Wire.i64 buf r.Verlet.step;
  Wire.f64 buf r.Verlet.sim_time;
  Wire.f64 buf r.Verlet.pe;
  Wire.f64 buf r.Verlet.ke;
  Wire.f64 buf r.Verlet.total_energy;
  Wire.f64 buf r.Verlet.temperature

let dec_record r =
  let step = Wire.rint r in
  let sim_time = Wire.rf64 r in
  let pe = Wire.rf64 r in
  let ke = Wire.rf64 r in
  let total_energy = Wire.rf64 r in
  let temperature = Wire.rf64 r in
  { Verlet.step; sim_time; pe; ke; total_energy; temperature }

let enc_progress buf p =
  Wire.f64 buf p.seconds;
  Wire.list buf
    (fun buf (k, v) ->
      Wire.str buf k;
      Wire.f64 buf v)
    p.breakdown;
  Wire.i64 buf p.pairs_evaluated;
  Wire.i64 buf p.interactions;
  Wire.str buf p.device_label;
  Wire.list buf enc_record p.records

let dec_progress r =
  let seconds = Wire.rf64 r in
  let breakdown =
    Wire.rlist r (fun r ->
        let k = Wire.rstr r in
        let v = Wire.rf64 r in
        (k, v))
  in
  let pairs_evaluated = Wire.rint r in
  let interactions = Wire.rint r in
  let device_label = Wire.rstr r in
  let records = Wire.rlist r dec_record in
  { seconds; breakdown; pairs_evaluated; interactions; device_label; records }

let enc_rng_state buf (s : Rng.state) =
  Buffer.add_int64_le buf s.Rng.bits;
  Wire.opt buf Wire.f64 s.Rng.cached

let dec_rng_state r =
  let bits = Wire.ri64 r in
  let cached = Wire.ropt r Wire.rf64 in
  { Rng.bits; cached }

let enc_site buf site = Wire.str buf (Mdfault.site_name site)

let dec_site r =
  let name = Wire.rstr r in
  match Mdfault.site_of_name name with
  | Some s -> s
  | None -> raise (Corrupt ("unknown fault site " ^ name))

let enc_event buf (e : Mdfault.event) =
  enc_site buf e.Mdfault.e_site;
  Wire.str buf e.Mdfault.e_stream;
  Wire.i64 buf e.Mdfault.e_index;
  Wire.i64 buf e.Mdfault.e_attempts;
  Wire.bool buf e.Mdfault.e_recovered;
  Wire.str buf e.Mdfault.e_detail

let dec_event r =
  let e_site = dec_site r in
  let e_stream = Wire.rstr r in
  let e_index = Wire.rint r in
  let e_attempts = Wire.rint r in
  let e_recovered = Wire.rbool r in
  let e_detail = Wire.rstr r in
  { Mdfault.e_site; e_stream; e_index; e_attempts; e_recovered; e_detail }

let enc_stream_state buf (ss : Mdfault.stream_state) =
  Wire.str buf ss.Mdfault.ss_name;
  enc_site buf ss.Mdfault.ss_site;
  Wire.f64 buf ss.Mdfault.ss_rate;
  Wire.opt buf enc_rng_state ss.Mdfault.ss_rng;
  Wire.list buf enc_event ss.Mdfault.ss_events;
  Wire.i64 buf ss.Mdfault.ss_event_count;
  Wire.i64 buf ss.Mdfault.ss_injected;
  Wire.i64 buf ss.Mdfault.ss_retries;
  Wire.i64 buf ss.Mdfault.ss_recoveries;
  Wire.i64 buf ss.Mdfault.ss_unrecovered;
  Wire.f64 buf ss.Mdfault.ss_backoff_s;
  Wire.i64 buf ss.Mdfault.ss_consecutive

let dec_stream_state r =
  let ss_name = Wire.rstr r in
  let ss_site = dec_site r in
  let ss_rate = Wire.rf64 r in
  let ss_rng = Wire.ropt r dec_rng_state in
  let ss_events = Wire.rlist r dec_event in
  let ss_event_count = Wire.rint r in
  let ss_injected = Wire.rint r in
  let ss_retries = Wire.rint r in
  let ss_recoveries = Wire.rint r in
  let ss_unrecovered = Wire.rint r in
  let ss_backoff_s = Wire.rf64 r in
  let ss_consecutive = Wire.rint r in
  { Mdfault.ss_name; ss_site; ss_rate; ss_rng; ss_events; ss_event_count;
    ss_injected; ss_retries; ss_recoveries; ss_unrecovered; ss_backoff_s;
    ss_consecutive }

let enc_fault buf (cs : Mdfault.state) =
  let spec = cs.Mdfault.cs_spec in
  Wire.i64 buf spec.Mdfault.seed;
  Wire.list buf
    (fun buf (site, rate) ->
      enc_site buf site;
      Wire.f64 buf rate)
    spec.Mdfault.rates;
  let p = spec.Mdfault.policy in
  Wire.i64 buf p.Mdfault.max_retries;
  Wire.f64 buf p.Mdfault.base_backoff_s;
  Wire.f64 buf p.Mdfault.backoff_multiplier;
  Wire.i64 buf p.Mdfault.watchdog_limit;
  Wire.list buf enc_stream_state cs.Mdfault.cs_streams;
  Wire.i64 buf cs.Mdfault.cs_recovered_steps

let dec_fault r =
  let seed = Wire.rint r in
  let rates =
    Wire.rlist r (fun r ->
        let site = dec_site r in
        let rate = Wire.rf64 r in
        (site, rate))
  in
  let max_retries = Wire.rint r in
  let base_backoff_s = Wire.rf64 r in
  let backoff_multiplier = Wire.rf64 r in
  let watchdog_limit = Wire.rint r in
  let cs_streams = Wire.rlist r dec_stream_state in
  let cs_recovered_steps = Wire.rint r in
  { Mdfault.cs_spec =
      { Mdfault.seed;
        rates;
        policy =
          { Mdfault.max_retries; base_backoff_s; backoff_multiplier;
            watchdog_limit };
        (* never persisted: a crash point belongs to the process that
           armed it, not to the resumed run *)
        io_crash_at = None };
    cs_streams;
    cs_recovered_steps }

let enc_cell buf (c : Mdprof.cell_state) =
  Wire.str buf c.Mdprof.p_name;
  Wire.str buf c.Mdprof.p_unit;
  Wire.i64 buf
    (match c.Mdprof.p_kind with
    | Mdprof.Counter -> 0
    | Mdprof.Gauge -> 1
    | Mdprof.Histogram -> 2);
  Wire.f64 buf c.Mdprof.p_value;
  Wire.f64 buf c.Mdprof.p_hwm;
  Wire.farr buf c.Mdprof.p_bounds;
  Wire.list buf Wire.i64 (Array.to_list c.Mdprof.p_counts);
  Wire.i64 buf c.Mdprof.p_obs;
  Wire.f64 buf c.Mdprof.p_sum

let dec_cell r =
  let p_name = Wire.rstr r in
  let p_unit = Wire.rstr r in
  let p_kind =
    match Wire.rint r with
    | 0 -> Mdprof.Counter
    | 1 -> Mdprof.Gauge
    | 2 -> Mdprof.Histogram
    | k -> raise (Corrupt (Printf.sprintf "unknown instrument kind %d" k))
  in
  let p_value = Wire.rf64 r in
  let p_hwm = Wire.rf64 r in
  let p_bounds = Wire.rfarr r in
  let p_counts = Array.of_list (Wire.rlist r Wire.rint) in
  let p_obs = Wire.rint r in
  let p_sum = Wire.rf64 r in
  { Mdprof.p_name; p_unit; p_kind; p_value; p_hwm; p_bounds; p_counts;
    p_obs; p_sum }

(* ------------------------------------------------------------------ *)
(* Section container                                                   *)
(* ------------------------------------------------------------------ *)

let section name payload =
  let buf = Buffer.create (String.length payload + 32) in
  Wire.u32 buf (String.length name);
  Buffer.add_string buf name;
  Wire.u32 buf (String.length payload);
  Wire.u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let payload_of f v =
  let buf = Buffer.create 1024 in
  f buf v;
  Buffer.contents buf

(* Generic container: magic line, section count, CRC-checksummed named
   sections.  The checkpoint format below is one client; the harness run
   manifest reuses it so every durable artifact shares one integrity
   story. *)
let encode_container ~magic:m sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf m;
  Wire.u32 buf (List.length sections);
  List.iter (fun (n, p) -> Buffer.add_string buf (section n p)) sections;
  Buffer.contents buf

let decode_container ~magic:m data =
  try
    let mlen = String.length m in
    if String.length data < mlen || String.sub data 0 mlen <> m then
      Error (Printf.sprintf "bad magic (expected %S)" (String.trim m))
    else begin
      let r = Wire.reader data in
      r.Wire.pos <- mlen;
      let count = Wire.ru32 r in
      if count > 100_000 then raise (Corrupt "implausible section count");
      let out = ref [] in
      for _ = 1 to count do
        let nlen = Wire.ru32 r in
        Wire.need r nlen;
        let name = String.sub data r.Wire.pos nlen in
        r.Wire.pos <- r.Wire.pos + nlen;
        let plen = Wire.ru32 r in
        let crc = Wire.ru32 r in
        Wire.need r plen;
        let payload = String.sub data r.Wire.pos plen in
        r.Wire.pos <- r.Wire.pos + plen;
        if crc32 payload <> crc then
          raise (Corrupt (Printf.sprintf "CRC mismatch in section %S" name));
        out := (name, payload) :: !out
      done;
      Ok (List.rev !out)
    end
  with
  | Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg

(* The format's sections for named auxiliary RNG streams and a
   thermostat.  No run has ever had either, so both are always written
   empty (a zero-length list, an absent option), which keeps every
   checkpoint's bytes; [decode] refuses a file with anything else in
   them, since resuming it would silently drop that state. *)
let empty_sections =
  [ ("rng", payload_of (fun buf () -> Wire.list buf (fun _ () -> ()) []) ());
    ("thermostat",
     payload_of (fun buf () -> Wire.opt buf (fun _ () -> ()) None) ()) ]

let encode st =
  let sections =
    [ ("meta", payload_of enc_meta st);
      ("system", payload_of enc_system st.system);
      ("progress", payload_of enc_progress st.progress) ]
    @ empty_sections
    @ [ ("faults", payload_of (fun buf -> Wire.opt buf enc_fault) st.fault);
        (* Virtual-clock Mdprof cells, sorted by name — deterministic
           bytes, so checkpoint files stay byte-comparable across runs. *)
        ("counters",
         payload_of
           (fun buf -> Wire.opt buf (fun buf -> Wire.list buf enc_cell))
           st.counters) ]
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Wire.u32 buf (List.length sections);
  List.iter (fun (n, p) -> Buffer.add_string buf (section n p)) sections;
  Buffer.contents buf

let decode data =
  try
    let mlen = String.length magic in
    if String.length data < mlen || String.sub data 0 mlen <> magic then
      Error
        (Printf.sprintf "bad magic (expected %S) — not a %s file"
           (String.trim magic) schema)
    else begin
      let r = Wire.reader data in
      r.Wire.pos <- mlen;
      let count = Wire.ru32 r in
      if count > 64 then raise (Corrupt "implausible section count");
      let sections = Hashtbl.create 8 in
      for _ = 1 to count do
        let nlen = Wire.ru32 r in
        Wire.need r nlen;
        let name = String.sub data r.Wire.pos nlen in
        r.Wire.pos <- r.Wire.pos + nlen;
        let plen = Wire.ru32 r in
        let crc = Wire.ru32 r in
        Wire.need r plen;
        let payload = String.sub data r.Wire.pos plen in
        r.Wire.pos <- r.Wire.pos + plen;
        if crc32 payload <> crc then
          raise (Corrupt (Printf.sprintf "CRC mismatch in section %S" name));
        Hashtbl.replace sections name payload
      done;
      let get name =
        match Hashtbl.find_opt sections name with
        | Some p -> Wire.reader p
        | None -> raise (Corrupt (Printf.sprintf "missing section %S" name))
      in
      let r = get "meta" in
      let device = Wire.rstr r in
      let atoms = Wire.rint r in
      let total_steps = Wire.rint r in
      let completed = Wire.rint r in
      let seed = Wire.rint r in
      let density = Wire.rf64 r in
      let temperature = Wire.rf64 r in
      let every = Wire.rint r in
      let keep = Wire.rint r in
      let guard_restores = Wire.rint r in
      (* Tolerant tail: pre-engine checkpoints stop here; they ran the
         then-only brute engine, and replaying their remaining segments
         must keep doing so to stay bitwise. *)
      let engine, skin =
        if r.Wire.pos < String.length r.data then begin
          let engine = Wire.rstr r in
          let skin = Wire.rf64 r in
          (engine, skin)
        end
        else Mdports.Force_path.(encode brute)
      in
      let system = dec_system (get "system") in
      if system.System.n <> atoms then raise (Corrupt "atom count mismatch");
      let progress = dec_progress (get "progress") in
      List.iter
        (fun (name, empty) ->
          if (get name).Wire.data <> empty then
            raise (Corrupt (Printf.sprintf "section %S is not empty" name)))
        empty_sections;
      let fault = Wire.ropt (get "faults") dec_fault in
      (* Optional section: checkpoints written before counters were
         serialized simply lack it and decode to [None]. *)
      let counters =
        match Hashtbl.find_opt sections "counters" with
        | None -> None
        | Some payload ->
          Wire.ropt (Wire.reader payload) (fun r -> Wire.rlist r dec_cell)
      in
      Ok
        { device; atoms; total_steps; completed; seed; density; temperature;
          engine; skin; every; keep; guard_restores; system; progress;
          fault; counters }
    end
  with
  | Corrupt msg -> Error msg
  | Invalid_argument msg -> Error ("invalid checkpoint contents: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Durable files: atomic write, generations, GC                        *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let generation_of_filename name =
  if
    String.length name > 5
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".mdsim"
  then int_of_string_opt (String.sub name 5 (String.length name - 11))
  else None

let generations ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           Option.map
             (fun g -> (g, Filename.concat dir name))
             (generation_of_filename name))
    |> List.sort compare

let gc ~dir ~keep =
  let keep = max 1 keep in
  let gens = List.rev (generations ~dir) in
  List.iteri
    (fun i (_, path) ->
      if i >= keep then
        try Mdio.remove path with
        | Unix.Unix_error _ | Sys_error _ -> ())
    gens;
  (* Stale [Mdio.write_atomic] temporaries — left by a crash mid-save — are
     never valid generations ([generation_of_filename] rejects them),
     so the first post-recovery GC sweeps them out. *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if
          String.length name > 5
          && String.sub name 0 5 = "ckpt-"
          && Filename.check_suffix name ".mdsim.tmp"
        then
          try Mdio.remove (Filename.concat dir name) with
          | Unix.Unix_error _ | Sys_error _ -> ())
      names)

let save ~dir st =
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "ckpt-%09d.mdsim" st.completed) in
  Mdio.write_atomic ~path (encode st);
  gc ~dir ~keep:st.keep;
  path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> decode data
  | exception Sys_error msg -> Error msg

(* Newest generation first; corrupt/truncated/wrong-schema files are
   rejected with a one-line diagnostic and the previous generation is
   tried instead. *)
let load_latest ~dir =
  let rec try_gens = function
    | [] -> Error (Printf.sprintf "no valid checkpoint found in %s" dir)
    | (_, path) :: rest -> (
      match load path with
      | Ok st -> Ok (st, path)
      | Error msg ->
        Printf.eprintf "mdsim: rejecting checkpoint %s: %s\n%!" path msg;
        try_gens rest)
  in
  match List.rev (generations ~dir) with
  | [] -> Error (Printf.sprintf "no checkpoint files (ckpt-*.mdsim) in %s" dir)
  | gens -> try_gens gens

(* ------------------------------------------------------------------ *)
(* Single-writer locks                                                 *)
(* ------------------------------------------------------------------ *)

module Lock = struct
  type t = { lk_key : string; lk_fd : Unix.file_descr }

  (* POSIX record locks never conflict within one process (a second
     lockf on the same file by the same process silently succeeds), so
     an in-process registry of held lock paths backs the OS lock: a
     second acquirer in the same process fails exactly like a second
     process would.  That is what makes the guard testable in-process
     and what protects a daemon from a same-process second engine. *)
  let held : (string, unit) Hashtbl.t = Hashtbl.create 8
  let held_mu = Mutex.create ()

  let normalize path =
    match Unix.realpath path with
    | p -> p
    | exception (Unix.Unix_error _ | Invalid_argument _) -> path

  let acquire ~path =
    mkdir_p (Filename.dirname path);
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot open lock file %s: %s" path
           (Unix.error_message e))
    | fd ->
      let key = normalize path in
      Mutex.lock held_mu;
      let in_process = Hashtbl.mem held key in
      if not in_process then Hashtbl.replace held key ();
      Mutex.unlock held_mu;
      if in_process then begin
        Unix.close fd;
        Error
          (Printf.sprintf "%s is already locked by this process" path)
      end
      else begin
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () -> Ok { lk_key = key; lk_fd = fd }
        | exception Unix.Unix_error _ ->
          Mutex.lock held_mu;
          Hashtbl.remove held key;
          Mutex.unlock held_mu;
          Unix.close fd;
          Error
            (Printf.sprintf "%s is locked by another mdsim process" path)
      end

  let release t =
    Mutex.lock held_mu;
    Hashtbl.remove held t.lk_key;
    Mutex.unlock held_mu;
    (try Unix.lockf t.lk_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
    try Unix.close t.lk_fd with Unix.Unix_error _ -> ()

  let guard_dir ~dir =
    mkdir_p dir;
    acquire ~path:(Filename.concat dir ".lock")
end

(* ------------------------------------------------------------------ *)
(* Segmented runner                                                    *)
(* ------------------------------------------------------------------ *)

module Runner = struct
  type device =
    | Opteron
    | Cell
    | Cell1
    | Ppe
    | Gpu
    | Mta
    | Mta_partial

  let device_name = function
    | Opteron -> "opteron"
    | Cell -> "cell"
    | Cell1 -> "cell-1spe"
    | Ppe -> "ppe"
    | Gpu -> "gpu"
    | Mta -> "mta"
    | Mta_partial -> "mta-partial"

  let all_devices = [ Opteron; Cell; Cell1; Ppe; Gpu; Mta; Mta_partial ]

  let device_of_name name =
    match List.find_opt (fun d -> device_name d = name) all_devices with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown device %S in checkpoint" name)

  type config = {
    cfg_device : device;
    cfg_atoms : int;
    cfg_steps : int;
    cfg_seed : int;
    cfg_density : float;
    cfg_temperature : float;
    cfg_force_path : Mdports.Force_path.t;
    cfg_every : int;
    cfg_keep : int;
    cfg_dir : string;
  }

  type suspension = {
    sus_completed : int;
    sus_total : int;
    sus_path : string option;
    sus_reason : string;
  }

  type outcome =
    | Complete of Run_result.t
    | Suspended of suspension

  (* External suspension requests (SIGTERM/SIGINT handlers, daemon
     drain).  Signal handlers only set this atomic; [advance] checks it
     between segments, so the in-flight segment always completes and
     its checkpoint is durable before the run suspends. *)
  let suspend_flag : string option Atomic.t = Atomic.make None
  let request_suspend ~reason = Atomic.set suspend_flag (Some reason)
  let suspend_requested () = Atomic.get suspend_flag
  let clear_suspend_request () = Atomic.set suspend_flag None

  (* Pairlist state is deliberately NOT serialized: each segment starts
     a fresh list, which forces a rebuild on the segment's first force
     evaluation.  Because the engine's forces are bitwise-independent of
     rebuild timing (beyond-cutoff list entries contribute exactly
     nothing), the resumed run's extra rebuild changes no physics — the
     uninterrupted and resumed runs execute the same segment schedule
     and converge bitwise. *)
  let segment device ~force_path system ~steps =
    match device with
    | Opteron -> Mdports.Opteron_port.run ~steps ~force_path system
    | Cell -> Mdports.Cell_port.run ~steps ~force_path system
    | Cell1 ->
      Mdports.Cell_port.run ~steps ~force_path
        ~config:{ Mdports.Cell_port.default_config with n_spes = 1 }
        system
    | Ppe -> Mdports.Cell_port.run_ppe_only ~steps system
    | Gpu -> Mdports.Gpu_port.run ~steps ~force_path system
    | Mta -> Mdports.Mta_port.run ~steps ~force_path system
    | Mta_partial ->
      Mdports.Mta_port.run ~steps ~force_path
        ~mode:Mdports.Mta_port.Partially_multithreaded system

  (* On a persistent invariant violation (Verlet's per-step restores
     exhausted) the segment is re-executed from its input state — the
     content of the newest valid checkpoint generation.  Re-execution
     advances the fault streams, so transient silent corruption gets a
     fresh draw sequence; a violation that survives the retries
     escalates. *)
  let max_segment_retries = 2

  let segment_guarded ?(on_retry = fun () -> ()) device ~force_path system
      ~steps =
    let rec go attempt =
      match segment device ~force_path system ~steps with
      | r -> r
      | exception Verlet.Invariant_violation _
        when attempt < max_segment_retries ->
        Mdfault.note_guard_restore ();
        on_retry ();
        go (attempt + 1)
    in
    go 0

  (* Stitch a segment's records onto the accumulated run: segments after
     the first re-derive a step-0 record identical (up to numbering) to
     the previous segment's final record, so it is dropped; the rest are
     renumbered into the global step index.  sim_time uses the same
     [step * dt] formula Verlet.make_record uses, so stitched values are
     bit-identical to a longer run's. *)
  let stitch_records ~base ~dt existing segs =
    let renumber (r : Verlet.step_record) =
      { r with
        Verlet.step = base + r.Verlet.step;
        sim_time = float_of_int (base + r.Verlet.step) *. dt }
    in
    match existing with
    | [] -> List.map renumber segs
    | _ -> (
      match segs with
      | [] -> existing
      | _ :: rest -> existing @ List.map renumber rest)

  let merge_breakdown acc seg =
    match acc with
    | [] -> seg
    | _ ->
      List.map
        (fun (k, v) ->
          ( k,
            v +. (match List.assoc_opt k acc with Some x -> x | None -> 0.0)
          ))
        seg

  let absorb_segment st (r : Run_result.t) ~seg_steps =
    let dt = st.system.System.params.Params.dt in
    let p = st.progress in
    let progress =
      { seconds = p.seconds +. r.Run_result.seconds;
        breakdown = merge_breakdown p.breakdown r.Run_result.breakdown;
        pairs_evaluated = p.pairs_evaluated + r.Run_result.pairs_evaluated;
        interactions = p.interactions + r.Run_result.interactions;
        records =
          stitch_records ~base:st.completed ~dt p.records
            r.Run_result.records;
        device_label = r.Run_result.device }
    in
    let system =
      match r.Run_result.final_system with
      | Some s -> s
      | None -> st.system
    in
    { st with
      completed = st.completed + seg_steps;
      system;
      progress;
      guard_restores = Mdfault.guard_restores ();
      fault = Mdfault.capture_state ();
      counters = Mdprof.capture_cells () }

  let result_of_state st =
    { Run_result.device = st.progress.device_label;
      n_atoms = st.atoms;
      steps = st.total_steps;
      seconds = st.progress.seconds;
      records = st.progress.records;
      breakdown = st.progress.breakdown;
      pairs_evaluated = st.progress.pairs_evaluated;
      interactions = st.progress.interactions;
      final_system = Some st.system }

  let initial_state cfg system =
    let engine, skin = Mdports.Force_path.encode cfg.cfg_force_path in
    { device = device_name cfg.cfg_device;
      atoms = cfg.cfg_atoms;
      total_steps = cfg.cfg_steps;
      completed = 0;
      seed = cfg.cfg_seed;
      density = cfg.cfg_density;
      temperature = cfg.cfg_temperature;
      engine;
      skin;
      every = cfg.cfg_every;
      keep = cfg.cfg_keep;
      guard_restores = Mdfault.guard_restores ();
      system;
      progress = empty_progress;
      fault = Mdfault.capture_state ();
      counters = Mdprof.capture_cells () }

  let config_of_state ~dir device ~force_path st =
    { cfg_device = device;
      cfg_atoms = st.atoms;
      cfg_steps = st.total_steps;
      cfg_seed = st.seed;
      cfg_density = st.density;
      cfg_temperature = st.temperature;
      cfg_force_path = force_path;
      cfg_every = st.every;
      cfg_keep = st.keep;
      cfg_dir = dir }

  let prepare cfg =
    let system =
      Mdcore.Init.build ~seed:cfg.cfg_seed ~density:cfg.cfg_density
        ~temperature:cfg.cfg_temperature ~n:cfg.cfg_atoms ()
    in
    initial_state cfg system

  type step_result =
    | Seg_complete of Run_result.t
    | Seg_checkpointed of t * string

  (* One segment of a segmented run (precondition: cfg_every > 0).
     Shared by [advance] and the serve engine, which interleaves
     segments of many jobs: everything per-segment (telemetry segment
     window, guard-retry rollback, the boundary sample, the durable
     save) happens here, so a job driven one segment at a time executes
     the exact schedule an uninterrupted [advance] would. *)
  let segment_step cfg st =
    if st.completed >= st.total_steps then Seg_complete (result_of_state st)
    else begin
      let seg_steps = min cfg.cfg_every (st.total_steps - st.completed) in
      let boundary = st.completed in
      Mdtel.set_segment ~base:boundary ~steps:seg_steps;
      let r =
        segment_guarded
          ~on_retry:(fun () -> Mdtel.rollback ~to_:boundary)
          cfg.cfg_device ~force_path:cfg.cfg_force_path st.system
          ~steps:seg_steps
      in
      let st = absorb_segment st r ~seg_steps in
      (* Boundary sample BEFORE the save: the restored Mdprof state is
         then exactly the last durable sample's delta baseline, which
         is what makes resumed interval reads continue the
         uninterrupted sequence. *)
      Mdtel.sync ~completed:st.completed;
      let path = save ~dir:cfg.cfg_dir st in
      Seg_checkpointed (st, path)
    end

  let advance ?abort_after_segments ?deadline cfg st0 =
    let st = ref st0 in
    let segs_done = ref 0 in
    let last_path = ref None in
    let suspend reason =
      Suspended
        { sus_completed = !st.completed;
          sus_total = !st.total_steps;
          sus_path = !last_path;
          sus_reason = reason }
    in
    let body () =
      Mdtel.set_total !st.total_steps;
      if cfg.cfg_every <= 0 then
        (* Checkpointing disabled: one straight port run, the seed path.
           Telemetry (if any) writes through per line so an in-flight
           [mdsim tail] sees live data. *)
        Complete
          (segment_guarded cfg.cfg_device ~force_path:cfg.cfg_force_path
             !st.system ~steps:!st.total_steps)
      else begin
        (* Segmented runs buffer telemetry records in memory and flush at
           each boundary (just before the save), so a guard-retried
           segment can be rolled back before anything hits the file and
           a kill-9 leaves the stream ending exactly at the newest
           durable checkpoint. *)
        Mdtel.set_buffered true;
        (* A generation-0 file makes resume possible however early the
           process dies; for resumed runs the newest generation already
           covers it. *)
        if !st.completed = 0 then
          last_path := Some (save ~dir:cfg.cfg_dir !st);
        let rec loop () =
          if !st.completed >= !st.total_steps then
            Complete (result_of_state !st)
          else
            match suspend_requested () with
            | Some reason -> suspend reason
            | None -> (
              match segment_step cfg !st with
              | Seg_complete r -> Complete r
              | Seg_checkpointed (st', path) -> (
                st := st';
                last_path := Some path;
                incr segs_done;
                match abort_after_segments with
                | Some k when !segs_done >= k ->
                  suspend "aborted by test hook"
                | _ -> loop ()))
        in
        loop ()
      end
    in
    match deadline with
    | None -> (
      try body () with
      | Verlet.Invariant_violation msg ->
        suspend ("invariant violation: " ^ msg))
    | Some seconds -> (
      try Sim_util.Deadline.with_budget ~seconds body with
      | Sim_util.Deadline.Expired budget ->
        suspend
          (Printf.sprintf "wall-clock deadline (%gs) exceeded" budget)
      | Verlet.Invariant_violation msg ->
        suspend ("invariant violation: " ^ msg))

  let run ?abort_after_segments ?deadline cfg =
    let system =
      Mdcore.Init.build ~seed:cfg.cfg_seed ~density:cfg.cfg_density
        ~temperature:cfg.cfg_temperature ~n:cfg.cfg_atoms ()
    in
    advance ?abort_after_segments ?deadline cfg (initial_state cfg system)

  let resume ?abort_after_segments ?deadline path =
    let loaded =
      if Sys.file_exists path && Sys.is_directory path then
        load_latest ~dir:path
      else Result.map (fun st -> (st, path)) (load path)
    in
    match loaded with
    | Error msg -> Error msg
    | Ok (st, file) -> (
      match device_of_name st.device with
      | Error msg -> Error msg
      | Ok device ->
      match Mdports.Force_path.decode ~engine:st.engine ~skin:st.skin with
      | Error msg -> Error msg
      | Ok force_path ->
        (* Reinstate process-global state captured at the checkpoint:
           the fault plan (stream PRNG positions, counters, event logs)
           and the guard-restore count — the resumed run continues the
           exact fault sequence of the uninterrupted one. *)
        (match st.fault with
        | Some fs -> Mdfault.restore_state fs
        | None -> ());
        Mdfault.set_guard_restores st.guard_restores;
        (* Counter state only matters to runs that observe it (an active
           --counters/--telemetry already enabled profiling); restoring
           it otherwise would silently switch recording on. *)
        (match st.counters with
        | Some cells when Mdprof.enabled () -> Mdprof.restore_cells cells
        | _ -> ());
        (* After restore_cells so the fresh delta baseline sits on the
           checkpointed cumulative values. *)
        Mdtel.on_resume ~completed:st.completed;
        let dir = Filename.dirname file in
        let cfg = config_of_state ~dir device ~force_path st in
        Ok (advance ?abort_after_segments ?deadline cfg st))
end
