(** Which force engine a port run should use.

    Every port accepts a [?force_path] argument defaulting to
    {!default}: the skin-based Verlet pairlist with the conventional
    0.4σ skin.  Small boxes (below the min-image bound for
    [cutoff+skin]) silently fall back to the brute O(N²) engine, so
    tiny fixtures and the paper-scale N² figures are unaffected by the
    default.  Each port asks {!resolve} once per run for its list, so
    the admissibility decision and the list's creation live here. *)

type t = Brute | Pairlist of { skin : float }

val default : t
(** [Pairlist {skin = Mdcore.Pairlist.default_skin}]. *)

val brute : t

val pairlist : ?skin:float -> unit -> t

val resolve : t -> Mdcore.System.t -> Mdcore.Pairlist.t option
(** The list a port run uses, created on [system] (the port's working
    copy) with the requested skin; [None] for the brute engine (either
    requested, or the pairlist is inadmissible for this box).  Raises
    [Invalid_argument] on a NaN, infinite or nonpositive skin. *)
