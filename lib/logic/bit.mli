(** Three-valued logic: the scalar value domain of the symbolic simulator.

    [X] represents an unknown value that may be 0 or 1 depending on
    application inputs (paper, Section 3.1).  All operators are the
    standard Kleene/IEEE-1164 ternary extensions of the Boolean
    functions: a gate output is known exactly when the known inputs
    force it (controlling values), and [X] otherwise. *)

type t = Zero | One | X

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_char : t -> char
val of_char : char -> t
(** [of_char] accepts '0', '1', 'x', 'X'.  @raise Invalid_argument otherwise *)

val of_bool : bool -> t

val to_bool_exn : t -> bool
(** @raise Invalid_argument on [X]. *)

val is_known : t -> bool

(** {1 Integer encoding}

    [Zero] = 0, [One] = 1, [X] = 2: the value codes the engines read
    back ([value_code]).  The engines compute on dual rails (can be 0 /
    can be 1), not on codes. *)

val to_int : t -> int
val of_int_exn : int -> t

val code_x : int

(** {1 Ternary operators} *)

val lnot : t -> t
val land_ : t -> t -> t
val lor_ : t -> t -> t
val lxor_ : t -> t -> t
val lnand : t -> t -> t
val lnor : t -> t -> t
val lxnor : t -> t -> t

val mux : t -> t -> t -> t
(** [mux sel a b] is [a] when [sel = Zero], [b] when [sel = One]; when
    [sel = X] it is the merge of [a] and [b] (equal branches stay
    known). *)

(** {1 Information order}

    [X] carries less information than a known value.  [merge] is the
    join: used to build conservative superstates (Algorithm 1). *)

val merge : t -> t -> t
(** [merge a b] is [a] if [a = b], else [X]. *)

val subsumes : t -> t -> bool
(** [subsumes general specific]: every concrete value allowed by
    [specific] is allowed by [general].  [X] subsumes everything; a
    known value subsumes only itself. *)

val concretizations : t -> t list
(** [Zero]/[One] map to themselves; [X] maps to [[Zero; One]]. *)
