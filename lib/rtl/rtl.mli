(** Hardware-construction DSL and synthesizer.

    Circuits are built as signal DAGs (vectors, LSB first) and then
    [synthesize]d into a {!Bespoke_netlist.Netlist.t} of 2-input gates,
    muxes and DFFs, with structural hashing, constant folding and
    fanout-based drive selection.  This stands in for the paper's
    RTL-to-gates synthesis (Synopsys Design Compiler).

    The DSL is single-threaded: signal constructors record the ambient
    hierarchical scope installed by {!in_scope}. *)

type builder
type signal

val create_builder : unit -> builder
val width : signal -> int

(** {1 Ports, hierarchy, naming} *)

val input : builder -> string -> int -> signal
val output : builder -> string -> signal -> unit

val name_net : builder -> string -> signal -> unit
(** Register an analysis hook: the net becomes observable by name in
    the synthesized netlist without being a design output. *)

val in_scope : builder -> string -> (unit -> 'a) -> 'a
(** Gates created inside run under ["parent/child"] module paths. *)

val at_scope : builder -> string -> (unit -> 'a) -> 'a
(** Like {!in_scope}, but absolute: the given path replaces the whole
    current scope stack (for shared infrastructure that must not be
    attributed to whichever module happens to instantiate it). *)

(** {1 Constants} *)

val constant : width:int -> int -> signal
val zero : int -> signal
val ones : int -> signal
val vdd : signal
val gnd : signal

(** {1 Bitwise operators} *)

val ( ~: ) : signal -> signal
val ( &: ) : signal -> signal -> signal
val ( |: ) : signal -> signal -> signal
val ( ^: ) : signal -> signal -> signal
val xnor : signal -> signal -> signal

(** {1 Structure} *)

val concat : signal list -> signal
(** LSB-first: [concat [lo; hi]] places [lo] in the low bits. *)

val select : signal -> hi:int -> lo:int -> signal
val bit : signal -> int -> signal
val msb : signal -> signal
val repeat : signal -> int -> signal
val uresize : signal -> int -> signal  (* zero-extend / truncate *)
val sresize : signal -> int -> signal  (* sign-extend / truncate *)

(** {1 Mux / selection} *)

val mux2 : signal -> signal -> signal -> signal
(** [mux2 sel f t]: [f] when [sel] = 0, [t] when [sel] = 1.  [sel] must
    be 1 bit wide; [f] and [t] the same width. *)

val mux : signal -> signal list -> signal
(** Indexed selection; the list length must be [2^(width sel)]. *)

val onehot_select : (signal * signal) list -> default:signal -> signal
(** [(enable, value)] pairs; enables are expected mutually exclusive,
    implemented as an AND/OR network: out = OR(en_i & v_i) | (none & default). *)

(** {1 Arithmetic / comparison (unsigned two's complement)} *)

val add : ?cin:signal -> signal -> signal -> signal
(** Result has the operand width (carry-out discarded). *)

val add_co : ?cin:signal -> signal -> signal -> signal * signal
(** Result plus carry-out. *)

val sub : signal -> signal -> signal
val ( ==: ) : signal -> signal -> signal
val ( <>: ) : signal -> signal -> signal
val eq_const : signal -> int -> signal
val ( <: ) : signal -> signal -> signal  (* unsigned less-than, 1 bit *)
val ( >=: ) : signal -> signal -> signal
val ( *: ) : signal -> signal -> signal
(** Array multiplier; result width is the sum of operand widths. *)

val is_zero : signal -> signal

(** {1 Shifts} *)

val sll_const : signal -> int -> signal
val srl_const : signal -> int -> signal

(** {1 Sequential} *)

val reg :
  builder ->
  ?enable:signal ->
  ?clear:signal ->
  ?clear_to:int ->
  init:int ->
  signal ->
  signal
(** Positive-edge DFF bank.  [enable] gates updates, [clear] is a
    synchronous clear to [clear_to] (default 0, priority over enable).
    [init] is the power-on/reset value. *)

val wire : int -> signal
val ( <== ) : signal -> signal -> unit
(** Assign a wire's driver (exactly once).  Wires allow feedback; a
    combinational loop through wires is rejected at synthesis. *)

(** {1 Reference semantics (for tests)} *)

val eval_comb : (string -> Bespoke_logic.Bvec.t) -> signal -> Bespoke_logic.Bvec.t
(** Direct ternary evaluation of a register-free signal DAG given
    input-port values.  @raise Invalid_argument on [Reg] nodes or
    unassigned wires. *)

(** {1 Synthesis} *)

val synthesize : builder -> Bespoke_netlist.Netlist.t
(** Lower every output, named net and reachable register to gates.
    The result is validated and levelized (combinational loops are
    reported here). *)
