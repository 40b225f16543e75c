(** XYZ trajectory output — the lingua-franca format every MD
    visualization tool (VMD, OVITO, ...) reads, so runs from this library
    can be inspected with standard tooling. *)

val write_trajectory : path:string -> ?element:string ->
  frames:System.t list -> unit -> unit
(** Write a whole trajectory file (frames are snapshots, e.g. collected
    with {!System.copy} during a run). *)

val frame_count : path:string -> int
(** Count the frames in an XYZ file (validates the atom-count headers;
    raises [Failure] on a malformed file). *)
