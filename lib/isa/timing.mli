(** The cycle cost of each instruction in the multi-cycle CPU FSM.

    This is the contract between the instruction-set simulator (which
    accumulates these counts) and the gate-level CPU (whose FSM
    structurally takes exactly these cycle counts); the lockstep tests
    check the two agree via the debug cycle counter. *)

val src_ext_cycles : Isa.src -> int
(** 1 when the source needs an extension-word fetch. *)

val writes_dst : Isa.two_op -> bool
(** CMP and BIT compute flags only and skip the destination write. *)

val cycles : Isa.t -> int
(** Total cycles from fetch to the last write, inclusive. *)

val irq_entry_cycles : int
(** Cycles to pre-empt the fetch, push PC, push SR and load the
    vector. *)
