type line = { mutable tag : int; mutable valid : bool; mutable lru : int }

type t = {
  line_bytes : int;
  sets : int;
  ways : int;
  offset_bits : int;
  index_mask : int;
  set_bits : int;
  data : line array array; (* data.(set).(way) *)
  mutable clock : int;     (* monotonic counter for LRU ordering *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ~line_bytes ~sets ~ways =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if not (is_pow2 sets) then
    invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let data =
    Array.init sets (fun _ ->
        Array.init ways (fun _ -> { tag = 0; valid = false; lru = 0 }))
  in
  { line_bytes; sets; ways; offset_bits = log2 line_bytes;
    index_mask = sets - 1; set_bits = log2 sets; data; clock = 0; hits = 0;
    misses = 0 }

let capacity_bytes t = t.line_bytes * t.sets * t.ways
type outcome = Hit | Miss

let block_of t addr =
  if addr < 0 then invalid_arg "Cache: negative address";
  addr lsr t.offset_bits

(* Way of the set holding [tag], or [Array.length lines] if none. *)
let find lines tag =
  let w = ref 0 in
  while
    !w < Array.length lines
    && not (lines.(!w).valid && lines.(!w).tag = tag)
  do
    incr w
  done;
  !w

let access t addr =
  let block = block_of t addr in
  let lines = t.data.(block land t.index_mask) in
  let tag = block lsr t.set_bits in
  t.clock <- t.clock + 1;
  let w = find lines tag in
  if w < Array.length lines then begin
    lines.(w).lru <- t.clock;
    t.hits <- t.hits + 1;
    Hit
  end
  else begin
    (* Choose an invalid way if any, else the least recently used. *)
    let victim = ref 0 in
    for w = 1 to Array.length lines - 1 do
      let l = lines.(w) and v = lines.(!victim) in
      if (not l.valid) && v.valid then victim := w
      else if l.valid && v.valid && l.lru < v.lru then victim := w
    done;
    let v = lines.(!victim) in
    v.tag <- tag;
    v.valid <- true;
    v.lru <- t.clock;
    t.misses <- t.misses + 1;
    Miss
  end

let contains t addr =
  let block = block_of t addr in
  let lines = t.data.(block land t.index_mask) in
  find lines (block lsr t.set_bits) < Array.length lines

let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let miss_rate t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.misses /. float_of_int n

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.iter (Array.iter (fun l -> l.valid <- false)) t.data;
  t.clock <- 0;
  reset_stats t
