(** Ternary bit-vectors (LSB at index 0).

    Used for symbolic register/memory words and for moving values
    between the gate-level world and the integer world of the ISS,
    assembler and test harnesses. *)

type t = Bit.t array

val create : int -> Bit.t -> t
val width : t -> int
val equal : t -> t -> bool
val get : t -> int -> Bit.t
val set : t -> int -> Bit.t -> unit

val of_int : width:int -> int -> t
(** Low [width] bits of the two's-complement representation. *)

val to_int : t -> int option
(** [None] if any bit is [X]; otherwise the unsigned value. *)

val to_int_exn : t -> int
val to_signed_int : t -> int option
val is_known : t -> bool
val all_x : int -> t
val of_string : string -> t
(** MSB-first, e.g. ["10x1"]. *)

val to_string : t -> string
(** MSB-first. *)

val pp : Format.formatter -> t -> unit

(** {1 Information order} *)

val merge : t -> t -> t
(** Pointwise [Bit.merge].  @raise Invalid_argument on width mismatch. *)

val subsumes : general:t -> specific:t -> bool
val concretizations : t -> t list
(** Exponential in the number of X bits; callers must bound it. *)

val count_x : t -> int

(** {1 Ternary arithmetic / logic} *)

val lnot : t -> t
val land_ : t -> t -> t
val lor_ : t -> t -> t
val lxor_ : t -> t -> t

val add : t -> t -> t
(** Ternary ripple-carry addition (X carries propagate). *)

