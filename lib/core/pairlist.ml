let default_skin = 0.4

(* Local copies of [Min_image.delta] and the [Params.lj_*] terms, which
   stay the reference: a call into another compilation unit is out of
   line and boxes its float arguments and result, once per candidate
   pair.  Same operations in the same order, so bit-identical. *)
let[@inline] delta box dx = dx -. (box *. Float.round (dx /. box))

type terms = {
  box : float;
  rc2 : float;
  inv_mass : float;
  sigma2 : float;
  eps24 : float;
  eps4 : float;
}

let terms (s : System.t) =
  let p = s.System.params in
  { box = s.System.box;
    rc2 = Params.cutoff2 p;
    inv_mass = 1.0 /. p.Params.mass;
    sigma2 = p.Params.sigma *. p.Params.sigma;
    eps24 = 24.0 *. p.Params.epsilon;
    eps4 = 4.0 *. p.Params.epsilon }

(* (sigma²/r²)³, after the r2 > 0 check [Params.lj_*] raise on. *)
let[@inline] s6 k r2 =
  if r2 <= 0.0 then invalid_arg "Params.lj_force_over_r: r2 must be positive";
  let s2 = k.sigma2 /. r2 in
  s2 *. s2 *. s2

let[@inline] force_over_r k s6 r2 = k.eps24 *. ((2.0 *. s6 *. s6) -. s6) /. r2
let[@inline] potential k s6 = k.eps4 *. ((s6 *. s6) -. s6)

(* Per-domain candidate buffer for list builds: a row's hits collect
   here, then one exact-size copy becomes the stored row. *)
let scratch = Domain.DLS.new_key (fun () -> ref [||])

let scratch_for n =
  let r = Domain.DLS.get scratch in
  if Array.length !r < n then r := Array.make n 0;
  !r

(* The Newton-3 traversal is split into [compute_chunks n] contiguous
   row blocks accumulating into private force buffers merged in block
   order.  The chunk count is a pure function of [n] — never of the
   pool size — so the summation order, and hence every force bit, is
   identical for any [--domains] setting (and identical to the serial
   traversal when the count is 1). *)
let compute_chunks n = if n < 512 then 1 else 8

type t = {
  system : System.t;
  skin : float;
  pool : Mdpar.t option;  (* None: resolve Mdpar.get () at build time *)
  (* Half-list: for each i, neighbours j > i within cutoff+skin, in
     ascending j order (the build algorithms below must all agree on
     this so the stored lists are byte-identical across them). *)
  mutable neighbours : int array array;
  (* Full rows (each unordered pair stored in both rows, ascending),
     derived lazily from the half-list for the gather-style ports;
     [full_gen] records which build they match. *)
  mutable full : int array array;
  mutable full_gen : int;
  full_hits : int array;  (* per-row hits of [compute_full_stats] *)
  ref_x : System.buf;  (* positions at last build *)
  ref_y : System.buf;
  ref_z : System.buf;
  mutable built : bool;
  mutable rebuilds : int;
  mutable last_hits : int;
  (* Candidate pairs whose distance the last build examined (the cost a
     port charges for a rebuild scan). *)
  row_scanned : int array;
  mutable last_scanned : int;
  (* Per-chunk Newton-3 accumulation state, allocated on the first
     compute and reused. *)
  mutable chunk_acc : float array array;  (* chunks × 3n *)
  chunk_pe : float array;
  chunk_hits : int array;
  (* Cell-binning state, allocated once at [create] and reused on every
     rebuild.  [cells = 0] means the box is too small for a 27-cell
     stencil and builds fall back to the O(N²) scan. *)
  cells : int;            (* cells per axis *)
  head : int array;       (* cells³ entries; first atom per cell *)
  next : int array;       (* per-atom chain through its cell *)
  atom_cell : int array;  (* cell index per atom, filled during binning *)
  obs : Mdobs.track option;  (* host-clock rebuild events *)
  prof_rebuilds : Mdprof.counter option;  (* host-clock rebuild count *)
  prof_builds : Mdprof.counter option;    (* virtual-clock build count *)
  prof_neighbours : Mdprof.gauge option;  (* stored half-list entries *)
}

let valid_skin skin = Float.is_finite skin && skin > 0.0

let admissible ?(skin = default_skin) (s : System.t) =
  valid_skin skin
  && s.System.box >= 2.0 *. (s.System.params.Params.cutoff +. skin)

(* Epsilon-tolerant floor of box/width.  When [box] is an exact multiple
   of [width], the floating division can land one ulp below the integer
   (e.g. 2.9999999999999996 for a true ratio of 3), silently dropping a
   cell per axis — or rejecting a legal box outright.  Accept [m + 1]
   whenever [(m + 1) * width] exceeds [box] by at most a few ulps of
   [box]. *)
let axis_cells ~box ~width =
  if not (width > 0.0) then invalid_arg "Pairlist.axis_cells: width";
  let m = int_of_float (box /. width) in
  if float_of_int (m + 1) *. width <= box +. (box *. 4.0 *. epsilon_float)
  then m + 1
  else m

(* Two distinct box thresholds govern a list's life:

   - [box < 2*(cutoff+skin)] — *validation*.  The minimum-image
     convention resolves each pair to a unique nearest image only when
     the interaction reach is at most half the box; past that bound the
     list itself would be wrong, so [create] rejects the configuration
     ([admissible] is the same predicate, for callers that want to fall
     back to a brute engine instead of raising).
   - [box/(cutoff+skin) < 3] — *build strategy*.  A correct but narrow
     box fits fewer than 3 cells per axis, where the 27-cell stencil
     would visit the same periodic image twice; builds then fall back
     to the O(N²) scan ([cells = 0]).  The stored list is identical
     either way.

   So 2*(cutoff+skin) <= box < 3*(cutoff+skin) means "admissible, but
   brute-built"; only below the first bound is the list refused.

   [instrumented = false] leaves every Mdobs/Mdprof slot empty, for
   lists that are not a simulated device's. *)
let make ~instrumented ~skin ?pool (s : System.t) =
  if not (valid_skin skin) then
    invalid_arg "Pairlist.create: skin must be positive and finite";
  let reach = s.System.params.Params.cutoff +. skin in
  if s.System.box < 2.0 *. reach then
    invalid_arg
      "Pairlist.create: cutoff + skin exceeds the min-image bound \
       (box < 2*(cutoff+skin))";
  let cells =
    let m = axis_cells ~box:s.System.box ~width:reach in
    if m >= 3 then m else 0
  in
  { system = s;
    skin;
    pool;
    neighbours = Array.make s.System.n [||];
    full = [||];
    full_gen = -1;
    full_hits = Array.make s.System.n 0;
    ref_x = System.create_buf s.System.n;
    ref_y = System.create_buf s.System.n;
    ref_z = System.create_buf s.System.n;
    built = false;
    rebuilds = 0;
    last_hits = 0;
    row_scanned = Array.make s.System.n 0;
    last_scanned = 0;
    chunk_acc = [||];
    chunk_pe = Array.make (compute_chunks s.System.n) 0.0;
    chunk_hits = Array.make (compute_chunks s.System.n) 0;
    cells;
    head = (if cells = 0 then [||] else Array.make (cells * cells * cells) (-1));
    next = Array.make s.System.n (-1);
    atom_cell = Array.make s.System.n 0;
    obs =
      (if instrumented && Mdobs.enabled () then
         Some (Mdobs.new_track ~clock:Mdobs.Host "pairlist")
       else None);
    prof_rebuilds =
      (if instrumented && Mdprof.enabled () then
         Some (Mdprof.counter ~clock:Mdprof.Host "pairlist/rebuilds")
       else None);
    prof_builds =
      (if instrumented && Mdprof.enabled () then
         Some (Mdprof.counter ~clock:Mdprof.Virtual "pairlist/builds")
       else None);
    prof_neighbours =
      (if instrumented && Mdprof.enabled () then
         Some
           (Mdprof.gauge ~unit_:"entries" ~clock:Mdprof.Virtual
              "pairlist/neighbours")
       else None) }

let create ?(skin = default_skin) ?pool s =
  make ~instrumented:true ~skin ?pool s

let create_uninstrumented s = make ~instrumented:false ~skin:default_skin s

let pool_of t =
  match t.pool with Some p -> p | None -> Mdpar.get ()

let reach_of t = t.system.System.params.Params.cutoff +. t.skin

let skin t = t.skin

let neighbour_count t =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 t.neighbours

let finish_build t =
  let { System.n; pos_x; pos_y; pos_z; _ } = t.system in
  Bigarray.Array1.blit pos_x t.ref_x;
  Bigarray.Array1.blit pos_y t.ref_y;
  Bigarray.Array1.blit pos_z t.ref_z;
  t.built <- true;
  t.rebuilds <- t.rebuilds + 1;
  t.last_scanned <- Array.fold_left ( + ) 0 t.row_scanned;
  (match t.prof_rebuilds with Some c -> Mdprof.incr c | None -> ());
  (match t.prof_builds with Some c -> Mdprof.incr c | None -> ());
  (match t.prof_neighbours with
  | Some g -> Mdprof.set g (float_of_int (neighbour_count t))
  | None -> ());
  match t.obs with
  | Some tr ->
    Mdobs.instant tr ~name:"rebuild" ~ts:(Mdobs.host_now ())
      ~args:
        [ ("rebuilds", Mdobs.Int t.rebuilds);
          ("atoms", Mdobs.Int n);
          ("cells", Mdobs.Int t.cells);
          ("scanned", Mdobs.Int t.last_scanned) ]
      ()
  | None -> ()

(* O(N²) build: each row scans every j > i.  Kept both as the fallback
   for boxes under 3 cells per axis and as the bench ablation baseline
   for the cell-binned build. *)
let build_row_brute t reach2 i =
  let { System.n; box; pos_x; pos_y; pos_z; _ } = t.system in
  let buf = scratch_for n and count = ref 0 in
  let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
  for j = i + 1 to n - 1 do
    let dx = delta box (xi -. pos_x.{j})
    and dy = delta box (yi -. pos_y.{j})
    and dz = delta box (zi -. pos_z.{j}) in
    if (dx *. dx) +. (dy *. dy) +. (dz *. dz) < reach2 then begin
      buf.(!count) <- j;
      incr count
    end
  done;
  t.row_scanned.(i) <- n - 1 - i;
  Array.sub buf 0 !count

let build_brute t =
  let n = t.system.System.n in
  let reach2 = reach_of t *. reach_of t in
  let neighbours = t.neighbours in
  Mdpar.parallel_for (pool_of t) ~lo:0 ~hi:(n - 1) (fun i ->
      neighbours.(i) <- build_row_brute t reach2 i);
  finish_build t

(* O(N) build: bin atoms into cells at least [cutoff+skin] wide (serial,
   one pass), then scan only the 27-cell stencil per row.  Rows are
   independent and each writes one slot of [neighbours], so the build
   parallelizes over the pool; candidates arrive in chain order and are
   sorted ascending, making the stored lists identical to the brute
   build bit-for-bit regardless of pool size. *)
let bin_atoms t =
  let { System.n; box; pos_x; pos_y; pos_z; _ } = t.system in
  let m = t.cells in
  let cell_size = box /. float_of_int m in
  Array.fill t.head 0 (Array.length t.head) (-1);
  let idx v =
    (* Wrapped coordinates are in [0, box) by [System.wrap_coord]'s
       contract; assert it rather than masking an upstream wrap bug.
       Division rounding can still push the index to [m] for v within a
       few ulps of box — the last cell absorbs that edge. *)
    assert (v >= 0.0 && v < box);
    let k = int_of_float (v /. cell_size) in
    if k >= m then m - 1 else k
  in
  for i = 0 to n - 1 do
    let c =
      (idx pos_z.{i} * m * m) + (idx pos_y.{i} * m) + idx pos_x.{i}
    in
    t.atom_cell.(i) <- c;
    t.next.(i) <- t.head.(c);
    t.head.(c) <- i
  done

let build_row_cells t reach2 i =
  let { System.n; box; pos_x; pos_y; pos_z; _ } = t.system in
  let m = t.cells in
  let wrap k = ((k mod m) + m) mod m in
  let ci = t.atom_cell.(i) in
  let cix = ci mod m and ciy = ci / m mod m and ciz = ci / (m * m) in
  let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
  let buf = scratch_for n and count = ref 0 and scanned = ref 0 in
  for sz = -1 to 1 do
    for sy = -1 to 1 do
      for sx = -1 to 1 do
        let c =
          (wrap (ciz + sz) * m * m) + (wrap (ciy + sy) * m) + wrap (cix + sx)
        in
        let j = ref t.head.(c) in
        while !j >= 0 do
          if !j > i then begin
            incr scanned;
            let dx = delta box (xi -. pos_x.{!j})
            and dy = delta box (yi -. pos_y.{!j})
            and dz = delta box (zi -. pos_z.{!j}) in
            if (dx *. dx) +. (dy *. dy) +. (dz *. dz) < reach2 then begin
              buf.(!count) <- !j;
              incr count
            end
          end;
          j := t.next.(!j)
        done
      done
    done
  done;
  t.row_scanned.(i) <- !scanned;
  (* Insertion sort: a row is a few dozen distinct indices. *)
  for k = 1 to !count - 1 do
    let v = buf.(k) and p = ref (k - 1) in
    while !p >= 0 && buf.(!p) > v do
      buf.(!p + 1) <- buf.(!p);
      decr p
    done;
    buf.(!p + 1) <- v
  done;
  Array.sub buf 0 !count

let build_cells t =
  let n = t.system.System.n in
  let reach2 = reach_of t *. reach_of t in
  bin_atoms t;
  let neighbours = t.neighbours in
  Mdpar.parallel_for (pool_of t) ~lo:0 ~hi:(n - 1) (fun i ->
      neighbours.(i) <- build_row_cells t reach2 i);
  finish_build t

let build t = if t.cells = 0 then build_brute t else build_cells t

let max_drift t =
  let s = t.system in
  let { System.n; box; pos_x; pos_y; pos_z; _ } = s in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = delta box (pos_x.{i} -. t.ref_x.{i})
    and dy = delta box (pos_y.{i} -. t.ref_y.{i})
    and dz = delta box (pos_z.{i} -. t.ref_z.{i}) in
    worst := Float.max !worst ((dx *. dx) +. (dy *. dy) +. (dz *. dz))
  done;
  sqrt !worst

let needs_rebuild t = (not t.built) || max_drift t > 0.5 *. t.skin

let refresh t = if needs_rebuild t then (build t; true) else false

(* Full rows derived from the half-list: partners below k arrive in
   ascending order by transposing the half rows in ascending i, then
   each row's own (ascending, > k) half row is appended — so every full
   row lists its partners strictly ascending, matching the order an
   O(N²) gather visits its hits in. *)
let full_rows t =
  if not t.built then invalid_arg "Pairlist.full_rows: list not built";
  if t.full_gen <> t.rebuilds then begin
    let n = t.system.System.n in
    let cnt = Array.make n 0 in
    Array.iteri
      (fun i row ->
        cnt.(i) <- cnt.(i) + Array.length row;
        Array.iter (fun j -> cnt.(j) <- cnt.(j) + 1) row)
      t.neighbours;
    let full = Array.init n (fun k -> Array.make cnt.(k) 0) in
    let fill = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.iter
        (fun j ->
          full.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        t.neighbours.(i)
    done;
    for k = 0 to n - 1 do
      let row = t.neighbours.(k) in
      Array.blit row 0 full.(k) fill.(k) (Array.length row)
    done;
    t.full <- full;
    t.full_gen <- t.rebuilds
  end;
  t.full

let full_entry_count t = 2 * neighbour_count t

(* Newton-3 over the half-list rows [lo, hi): both sides of every
   in-cutoff pair accumulate into [buf] (3n, zeroed here); the chunk's
   PE and hit count land in slot [c]. *)
let accumulate_rows t (s : System.t) k buf c ~lo ~hi =
  let { System.pos_x; pos_y; pos_z; _ } = s in
  Array.fill buf 0 (Array.length buf) 0.0;
  let pe = ref 0.0 and hits = ref 0 in
  for i = lo to hi - 1 do
    let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
    let row = t.neighbours.(i) in
    for m = 0 to Array.length row - 1 do
      let j = row.(m) in
      let dx = delta k.box (xi -. pos_x.{j})
      and dy = delta k.box (yi -. pos_y.{j})
      and dz = delta k.box (zi -. pos_z.{j}) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if r2 < k.rc2 then begin
        let s6 = s6 k r2 in
        let f_over_r = force_over_r k s6 r2 in
        let ax = f_over_r *. dx *. k.inv_mass
        and ay = f_over_r *. dy *. k.inv_mass
        and az = f_over_r *. dz *. k.inv_mass in
        buf.(3 * i) <- buf.(3 * i) +. ax;
        buf.((3 * i) + 1) <- buf.((3 * i) + 1) +. ay;
        buf.((3 * i) + 2) <- buf.((3 * i) + 2) +. az;
        buf.(3 * j) <- buf.(3 * j) -. ax;
        buf.((3 * j) + 1) <- buf.((3 * j) + 1) -. ay;
        buf.((3 * j) + 2) <- buf.((3 * j) + 2) -. az;
        pe := !pe +. potential k s6;
        incr hits
      end
    done
  done;
  t.chunk_pe.(c) <- !pe;
  t.chunk_hits.(c) <- !hits

(* Chunk c owns the contiguous row block [c*n/chunks, (c+1)*n/chunks).
   With several chunks they run on the pool and their buffers are
   merged per atom in ascending chunk order (PE/hit partials folded the
   same way), so the result is a pure function of (n, list) —
   independent of the pool size and of which domain ran which chunk.
   A single chunk runs inline and its buffer is the result: every slot
   sees the same additions in the same order from +0.0 as the serial
   traversal would. *)
let compute t (s : System.t) =
  if s != t.system then
    invalid_arg "Pairlist: engine used with a different system";
  if needs_rebuild t then build t;
  let { System.n; acc_x; acc_y; acc_z; _ } = s in
  let chunks = compute_chunks n in
  if Array.length t.chunk_acc = 0 then
    t.chunk_acc <- Array.init chunks (fun _ -> Array.make (3 * n) 0.0);
  let bufs = t.chunk_acc in
  let k = terms s in
  let chunk c =
    accumulate_rows t s k bufs.(c) c ~lo:(c * n / chunks)
      ~hi:((c + 1) * n / chunks)
  in
  if chunks = 1 then begin
    chunk 0;
    let buf = bufs.(0) in
    for i = 0 to n - 1 do
      acc_x.{i} <- buf.(3 * i);
      acc_y.{i} <- buf.((3 * i) + 1);
      acc_z.{i} <- buf.((3 * i) + 2)
    done;
    t.last_hits <- t.chunk_hits.(0);
    t.chunk_pe.(0)
  end
  else begin
    let pool = pool_of t in
    Mdpar.parallel_for pool ~lo:0 ~hi:(chunks - 1) chunk;
    Mdpar.parallel_for pool ~lo:0 ~hi:(n - 1) (fun i ->
        let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
        for c = 0 to chunks - 1 do
          let buf = bufs.(c) in
          ax := !ax +. buf.(3 * i);
          ay := !ay +. buf.((3 * i) + 1);
          az := !az +. buf.((3 * i) + 2)
        done;
        acc_x.{i} <- !ax;
        acc_y.{i} <- !ay;
        acc_z.{i} <- !az);
    let pe = ref 0.0 and hits = ref 0 in
    for c = 0 to chunks - 1 do
      pe := !pe +. t.chunk_pe.(c);
      hits := !hits + t.chunk_hits.(c)
    done;
    t.last_hits <- !hits;
    !pe
  end

type partners = All of int | Rows of int array array

(* The double-precision row gather, bit-identical to
   [Forces.compute_gather_stats]: each row's hits arrive in ascending-j
   order, and the pairs a list omits lie beyond cutoff+skin, which add
   nothing to the O(N²) sums.  PE is one running sum over every pair
   potential, in row-then-partner order.  One pair body serves both
   partner sets; [sweep] is -1 for list rows. *)
let gather (s : System.t) partners ~row_hits =
  let { System.n; pos_x; pos_y; pos_z; acc_x; acc_y; acc_z; _ } = s in
  let k = terms s in
  let sweep = match partners with All m -> m | Rows _ -> -1 in
  let rows = match partners with Rows rows -> rows | All _ -> [||] in
  let pe2 = ref 0.0 and hits = ref 0 in
  for i = 0 to n - 1 do
    let xi = pos_x.{i} and yi = pos_y.{i} and zi = pos_z.{i} in
    let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 and row_n = ref 0 in
    let row = if sweep < 0 then rows.(i) else [||] in
    let len = if sweep < 0 then Array.length row else sweep in
    for m = 0 to len - 1 do
      let j = if sweep < 0 then row.(m) else m in
      if j <> i then begin
        let dx = delta k.box (xi -. pos_x.{j})
        and dy = delta k.box (yi -. pos_y.{j})
        and dz = delta k.box (zi -. pos_z.{j}) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 < k.rc2 then begin
          let s6 = s6 k r2 in
          let f_over_r = force_over_r k s6 r2 in
          fx := !fx +. (f_over_r *. dx);
          fy := !fy +. (f_over_r *. dy);
          fz := !fz +. (f_over_r *. dz);
          pe2 := !pe2 +. potential k s6;
          incr row_n
        end
      end
    done;
    acc_x.{i} <- !fx *. k.inv_mass;
    acc_y.{i} <- !fy *. k.inv_mass;
    acc_z.{i} <- !fz *. k.inv_mass;
    row_hits.(i) <- !row_n;
    hits := !hits + !row_n
  done;
  (0.5 *. !pe2, !hits)

let compute_full_stats t (s : System.t) =
  if s != t.system then
    invalid_arg "Pairlist: engine used with a different system";
  if needs_rebuild t then build t;
  let ((_, hits) as stats) =
    gather s (Rows (full_rows t)) ~row_hits:t.full_hits
  in
  t.last_hits <- hits;
  stats

let engine t = Engine.make ~name:"pairlist" ~compute:(compute t)

let rebuild_count t = t.rebuilds

let last_interaction_count t = t.last_hits

let last_build_scanned t = t.last_scanned

let force_rebuild t = build t

let force_rebuild_brute t = build_brute t

let uses_cells t = t.cells > 0
