(* [Sim_util.F32.round], local so the per-float staging loop calls no
   other compilation unit (such a call boxes its result). *)
let[@inline] round x = Int32.float_of_bits (Int32.bits_of_float x)

exception Overflow of { requested : int; available : int }

type t = {
  capacity : int;
  mutable used : int;
  mutable generation : int;
}

type buffer = {
  store : t;
  buf_name : string;
  data : float array;
  born : int; (* generation at allocation; stale after reset *)
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then
    invalid_arg "Local_store.create: capacity must be positive";
  { capacity = capacity_bytes; used = 0; generation = 0 }

let quadword_bytes floats = ((floats * 4) + 15) / 16 * 16

let alloc t ~name ~floats =
  if floats < 0 then invalid_arg "Local_store.alloc: negative size";
  let bytes = quadword_bytes floats in
  if t.used + bytes > t.capacity then
    raise (Overflow { requested = bytes; available = t.capacity - t.used });
  t.used <- t.used + bytes;
  { store = t; buf_name = name; data = Array.make floats 0.0;
    born = t.generation }

let reset t =
  t.used <- 0;
  t.generation <- t.generation + 1

let used_bytes t = t.used
let check_live b =
  if b.born <> b.store.generation then
    invalid_arg
      (Printf.sprintf "Local_store: buffer %S used after reset" b.buf_name)

let length b = Array.length b.data
let get b i =
  check_live b;
  b.data.(i)

let set b i v =
  check_live b;
  b.data.(i) <- round v

let blit_from_array ~src ~src_pos ~dst ~dst_pos ~len =
  check_live dst;
  if len < 0 || src_pos < 0 || dst_pos < 0
     || src_pos + len > Array.length src
     || dst_pos + len > Array.length dst.data
  then invalid_arg "Local_store.blit_from_array: range";
  for k = 0 to len - 1 do
    dst.data.(dst_pos + k) <- round src.(src_pos + k)
  done

let blit_to_array ~src ~src_pos ~dst ~dst_pos ~len =
  check_live src;
  if len < 0 || src_pos < 0 || dst_pos < 0
     || src_pos + len > Array.length src.data
     || dst_pos + len > Array.length dst
  then invalid_arg "Local_store.blit_to_array: range";
  Array.blit src.data src_pos dst dst_pos len
