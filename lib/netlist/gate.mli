(** A single gate instance in a structural netlist.

    Every gate drives exactly one net, identified with the gate's own
    id; [fanin] holds the ids of the gates driving its input pins. *)

type op =
  | Const of Bespoke_logic.Bit.t  (** constant driver; no inputs *)
  | Input  (** primary-input bit; no inputs; value set by the simulator *)
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux  (** fanin [sel; a; b]: output is [a] when sel=0, [b] when sel=1 *)
  | Dff of Bespoke_logic.Bit.t  (** fanin [d]; payload is the reset value *)

type t = {
  op : op;
  fanin : int array;
  module_path : string;
      (** hierarchical instance path, e.g. "cpu/frontend"; "" at top *)
  drive : int;  (** drive-strength index into the cell library (0 = low) *)
}

val arity : op -> int
val is_sequential : t -> bool
val is_source : t -> bool
(** True for gates whose output does not depend combinationally on any
    fanin: [Const], [Input], [Dff]. *)

val op_equal : op -> op -> bool
val op_name : op -> string

val eval : op -> Bespoke_logic.Bit.t array -> Bespoke_logic.Bit.t
(** Combinational evaluation ([Dff] evaluates its [d] input, i.e. the
    next-state function; [Input] evaluation is an error). *)
