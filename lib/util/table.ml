type align = Left | Right

type t = { headers : string list; mutable rows : string list list }

let create ~headers =
  if headers = [] then invalid_arg "Table.create: no headers";
  { headers; rows = [] }

let width t = List.length t.headers

let add_row t cells =
  if List.length cells <> width t then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" (width t)
         (List.length cells));
  t.rows <- t.rows @ [ cells ]

let fmt_sig4 x =
  if x = 0.0 then "0"
  else if Float.is_nan x then "nan"
  else if Float.is_integer x && abs_float x < 1e7 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let fmt_seconds s =
  let a = abs_float s in
  if a = 0.0 then "0 s"
  else if a < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if a < 1e-3 then Printf.sprintf "%.2f us" (s *. 1e6)
  else if a < 1.0 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.3f s" s

let row_count t = List.length t.rows
let headers t = t.headers
let rows t = t.rows

let of_rows ~headers rows =
  let t = create ~headers in
  List.iter (add_row t) rows;
  t

let default_aligns t = Left :: List.init (width t - 1) (fun _ -> Right)

let render ?aligns t =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> width t then
        invalid_arg "Table.render: aligns length mismatch";
      a
    | None -> default_aligns t
  in
  let all = t.headers :: t.rows in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map (fun _ -> 0) t.headers)
      all
  in
  let pad align w c =
    let fill = String.make (w - String.length c) ' ' in
    match align with Left -> c ^ fill | Right -> fill ^ c
  in
  let render_row row =
    let cells =
      List.map2 (fun (a, w) c -> pad a w c) (List.combine aligns widths) row
    in
    String.concat "  " cells
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row t.rows)

let to_markdown t =
  let escape c =
    String.concat "\\|" (String.split_on_char '|' c)
  in
  let line row = "| " ^ String.concat " | " (List.map escape row) ^ " |" in
  let sep =
    "|" ^ String.concat "|" (List.map (fun _ -> "---") t.headers) ^ "|"
  in
  String.concat "\n" (line t.headers :: sep :: List.map line t.rows) ^ "\n"

let csv_cell c =
  let needs_quote =
    String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c
  in
  if needs_quote then begin
    let buf = Buffer.create (String.length c + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf ch)
      c;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else c

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  String.concat "\n" (List.map line (t.headers :: t.rows)) ^ "\n"
