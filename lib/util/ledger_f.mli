(** Generic wall-clock decomposition ledger, parameterized by a category
    enumeration.  Each device simulator instantiates it with its own
    categories (spawn/DMA/compute on the Cell, upload/shader/readback on
    the GPU, ...) so that every second of virtual time is attributed and
    the decomposition plots in the paper are measurements. *)

module type Category = sig
  type t

  val all : t list
  (** Every category, each exactly once. *)

  val name : t -> string
end

module type S = sig
  type category
  type t

  val create : unit -> t

  val add : t -> category -> float -> unit
  (** Seconds must be nonnegative; raises [Invalid_argument] otherwise. *)

  val add_repeated : t -> category -> float -> int -> unit
  (** [add_repeated t cat seconds k] is [k] successive [add t cat
      seconds], each sum rounded in turn, so bitwise the same. *)

  val get : t -> category -> float
  val total : t -> float

  val fraction : t -> category -> float
  (** Share of total; 0 if the total is 0. *)

  val reset : t -> unit
  val merge_into : dst:t -> src:t -> unit
  val pp : Format.formatter -> t -> unit
end

module Make (C : Category) : S with type category = C.t
