(** Plain-text and CSV rendering for experiment results.

    Every reproduced table/figure is ultimately a small grid of labelled
    numbers; this module renders them in the same row/series layout the
    paper uses so outputs can be compared side by side. *)

type align = Left | Right

type t
(** A table under construction: a header row plus data rows. *)

val create : headers:string list -> t
(** [create ~headers] starts a table.  Every subsequently added row must
    have exactly as many cells as there are headers. *)

val add_row : t -> string list -> unit

val row_count : t -> int

val headers : t -> string list
val rows : t -> string list list
(** Raw cells in insertion order — used by the harness manifest to persist
    completed tables verbatim. *)

val of_rows : headers:string list -> string list list -> t
(** Rebuild a table from {!headers}/{!rows} output.  Raises
    [Invalid_argument] on ragged rows, like {!add_row}. *)

val render : ?aligns:align list -> t -> string
(** Fixed-width text rendering with a header separator.  [aligns] defaults
    to left for the first column and right for the rest. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines). *)

val to_markdown : t -> string
(** GitHub-flavoured Markdown table (pipes in cells are escaped). *)

val fmt_seconds : float -> string
(** Human-readable time: "123.4 us", "45.67 ms", "1.234 s". *)

val fmt_sig4 : float -> string
(** Four significant digits. *)
