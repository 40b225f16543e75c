type t = {
  page_bits : int;
  entries : int;
  miss_cycles : int;
  (* Resident page numbers in slots [0, used), each with its last-use
     stamp. *)
  pages : int array;
  stamps : int array;
  mutable used : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  prof_hits : Mdprof.counter option;
  prof_misses : Mdprof.counter option;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(page_bytes = 4096) ?(entries = 32) ?(miss_cycles = 25) () =
  if not (is_pow2 page_bytes) then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if miss_cycles < 0 then invalid_arg "Tlb.create: negative miss cost";
  let prof name =
    if Mdprof.enabled () then Some (Mdprof.counter ~clock:Mdprof.Virtual name)
    else None
  in
  { page_bits = log2 page_bytes; entries; miss_cycles;
    pages = Array.make entries 0; stamps = Array.make entries 0; used = 0;
    clock = 0; hits = 0; misses = 0;
    prof_hits = prof "mem/tlb_hits"; prof_misses = prof "mem/tlb_misses" }

(* Stamps are unique, so the least recently used page is too. *)
let lru_slot t =
  let v = ref 0 in
  for k = 1 to t.used - 1 do
    if t.stamps.(k) < t.stamps.(!v) then v := k
  done;
  !v

let access t addr =
  if addr < 0 then invalid_arg "Tlb.access: negative address";
  let page = addr lsr t.page_bits in
  t.clock <- t.clock + 1;
  let k = ref 0 in
  while !k < t.used && t.pages.(!k) <> page do
    incr k
  done;
  if !k < t.used then begin
    t.stamps.(!k) <- t.clock;
    t.hits <- t.hits + 1;
    (match t.prof_hits with Some c -> Mdprof.incr c | None -> ());
    0
  end
  else begin
    let slot =
      if t.used < t.entries then begin
        t.used <- t.used + 1;
        t.used - 1
      end
      else lru_slot t
    in
    t.pages.(slot) <- page;
    t.stamps.(slot) <- t.clock;
    t.misses <- t.misses + 1;
    (match t.prof_misses with Some c -> Mdprof.incr c | None -> ());
    t.miss_cycles
  end

let hits t = t.hits
let misses t = t.misses

let reach_bytes t = t.entries * (1 lsl t.page_bits)

let flush t =
  t.used <- 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0
