type t = { base : int; mutable cursor : int }

let create ?(base = 4096) () =
  if base < 0 then invalid_arg "Layout.create: negative base";
  { base; cursor = base }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let alloc t ~bytes ~align =
  if bytes < 0 then invalid_arg "Layout.alloc: negative size";
  if not (is_pow2 align) then
    invalid_arg "Layout.alloc: align must be a positive power of two";
  let aligned = (t.cursor + align - 1) land lnot (align - 1) in
  t.cursor <- aligned + bytes;
  aligned

let alloc_float_array t ~n = alloc t ~bytes:(n * 8) ~align:64
