(** Instruction-set simulator: the golden architectural model.

    Executes binaries over the {!Memmap} address space with the same
    peripheral semantics as the gate-level CPU (GPIO, halt port, clock
    module, watchdog, debug block, hardware multiplier, single external
    IRQ).  The lockstep tests drive the ISS and the gate-level core
    side by side and require identical architectural state. *)

type t

val create : Asm.image -> t
val reset : t -> unit

(** {1 Architectural state} *)

val reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val pc : t -> int
val sr : t -> int
val halted : t -> bool
val cycles : t -> int
(** Accumulated cycle count per the {!Timing} model. *)

val instructions_retired : t -> int

val read_word : t -> int -> int
(** Bus read (peripherals included). *)

val read_ram_word : t -> int -> int
(** Direct RAM array access, no peripheral side effects. *)

val write_ram_word : t -> int -> int -> unit

(** {1 I/O} *)

val set_gpio_in : t -> int -> unit
val gpio_out : t -> int
val output_trace : t -> (int * int) list
(** [(instruction index, value)] for every write to the GPIO output
    register, oldest first. *)

val set_irq_line : t -> bool -> unit

(** {1 Execution} *)

exception Bus_error of { addr : int; write : bool }

val step : t -> unit
(** Execute one instruction (taking a pending enabled interrupt
    first).  No-op when halted. *)

val run : ?max_insns:int -> t -> unit
(** Step until halted.  @raise Failure if the limit is exceeded. *)

val current_insn : t -> Isa.t
(** Decode (without executing) the instruction at PC. *)
