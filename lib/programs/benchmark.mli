(** Benchmark registry: the paper's Table 1 suite plus the unit-test,
    RTOS and subneg-characterization binaries.

    Conventions shared by every program:
    - stack grows down from 0x0400;
    - application inputs live in RAM at [input_base] (and/or arrive on
      the GPIO input port) — the analysis drives them with X, concrete
      runs fill them from {!gen_inputs};
    - results are stored from 0x0380 and usually echoed to the GPIO
      output port;
    - execution ends with a write to the simulation halt port. *)

type group = Sensor | Eembc | Unit_test | Synthetic

type t = {
  name : string;
  description : string;
  group : group;
  source : string;  (** assembly text *)
  input_ranges : (int * int) list;
      (** inclusive byte-address ranges of RAM treated as unknown
          inputs during analysis *)
  gen_inputs : int -> (int * int) list * int;
      (** [seed -> (ram word writes, gpio_in value)] for concrete runs *)
  uses_irq : bool;
  irq_pulses : int -> int list;
      (** [seed -> instruction indices] at which the external IRQ line
          is pulsed *)
  result_addrs : int list;  (** byte addresses of result words *)
}

val image : t -> Bespoke_isa.Asm.image
(** Assemble (memoized per call site; assembly is cheap). *)

val input_base : int
val output_base : int

(** {1 Deterministic input generation helper} *)

val rand16 : state:int ref -> int
(** LCG step returning 16 bits; used by all [gen_inputs]. *)

val words : state:int ref -> base:int -> count:int -> ?mask:int -> unit ->
  (int * int) list

val mk :
  ?group:group ->
  ?input_ranges:(int * int) list ->
  ?gen_inputs:(int -> (int * int) list * int) ->
  ?uses_irq:bool ->
  ?irq_pulses:(int -> int list) ->
  ?result_addrs:int list ->
  string -> string -> string -> t
(** [mk name description source] — constructor for benchmark records,
    exported so other cores' suites (e.g. the RV32 ports) share the
    defaults.  [result_addrs] defaults to the MSP430 [output_base];
    pass it explicitly for any other core. *)

(** {1 The suite} *)

val bin_search : t
val div : t
val in_sort : t
val int_avg : t
val mult : t
val rle : t
val tea8 : t
val viterbi : t
val autocorr : t
val irq : t
val dbg : t

val table1 : t list
(** The 15 benchmarks of the paper's Table 1, in its order. *)

val all : t list
(** [table1] plus the scrambled-intFilt synthetic benchmark. *)

val find : string -> t
(** @raise Not_found *)
