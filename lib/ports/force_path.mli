(** Which force engine a port run should use, and whether a run can go
    as requested.

    Every port accepts a [?force_path] argument defaulting to
    {!default}: the skin-based Verlet pairlist with the conventional
    0.4σ skin.  Small boxes (below the min-image bound for
    [cutoff+skin]) silently fall back to the brute O(N²) engine, so
    tiny fixtures and the paper-scale N² figures are unaffected by the
    default.  Each port asks {!resolve} once per run for its list, so
    the admissibility decision and the list's creation live here.

    {!setup} is the one place a run's geometry and requested engine are
    judged before anything is built: the CLI's [run] and [profile], the
    serve engine's submit and ledger adoption all call it, and the
    checkpoint stores the engine through {!encode}/{!decode}. *)

type t = Brute | Pairlist of { skin : float }

val default : t
(** [Pairlist {skin = Mdcore.Pairlist.default_skin}]. *)

val brute : t

val pairlist : ?skin:float -> unit -> t

val names : string list
(** The engine names {!decode} accepts: ["n2"] and ["pairlist"]. *)

val encode : t -> string * float
(** [(engine, skin)] as a checkpoint stores them: ["pairlist"] with its
    skin, or ["n2"] with {!Mdcore.Pairlist.default_skin}. *)

val decode : engine:string -> skin:float -> (t, string) result
(** Inverse of {!encode}; [Error] on an unknown engine name. *)

val setup : ?engine:string -> ?skin:float -> n:int -> density:float -> unit ->
  (t, string) result
(** The force path for a run of [n] atoms at [density] (default
    {!Mdcore.Params}), or a one-line reason why the run cannot go as
    requested.  [engine] is ["n2"], ["pairlist"], or ["default"]
    (also when absent or empty); [skin] defaults to
    {!Mdcore.Pairlist.default_skin} and is checked for every engine.

    The box is {!Mdcore.Init.lattice_box}, the one {!Mdcore.Init.build}
    creates, and the comparisons are [System.create]'s and
    {!Mdcore.Pairlist.admissible}'s, so [Ok] means exactly that
    [Init.build] succeeds and, for an explicit ["pairlist"], that the
    run really uses the list.  The default engine still falls back to
    brute silently on boxes too small for the list. *)

val resolve : t -> Mdcore.System.t -> Mdcore.Pairlist.t option
(** The list a port run uses, created on [system] (the port's working
    copy) with the requested skin; [None] for the brute engine (either
    requested, or the pairlist is inadmissible for this box).  Raises
    [Invalid_argument] on a NaN, infinite or nonpositive skin. *)
