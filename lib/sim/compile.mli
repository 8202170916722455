(** Compiled word-level gate simulation.

    [create] lowers a levelized netlist into a flat, closure-free
    instruction program over native 63-bit words and caches the result
    by design hash ({!Bespoke_netlist.Serial.hash}), so repeated
    simulations of the same (or an unchanged) design recompile
    nothing.

    The compiler re-discovers word-level structure that the RTL DSL
    lowered away:

    - maximal runs of consecutive-id gates with the same op whose
      fanin columns are arithmetic progressions become one vector
      instruction (AND/OR/XOR/... over a whole word per step);
    - the 5-gates-per-bit ripple-carry pattern emitted for adders
      becomes one adder instruction: one native add per carry rail
      resolves the chain's three-valued carries, and every internal
      gate value follows word-wise, so per-gate activity stays exact;
    - consecutive DFF and input-port bits share one word each;
    - everything else falls back to per-gate instructions, on the
      same rail formulas as the word instructions.

    State is dual-rail (can-be-0 / can-be-1 masks), making the word
    operations exact three-valued Kleene evaluation: values, toggle
    counts and possibly-toggled flags are bit-identical to a plain
    levelized sweep (the test oracle in [test/oracle/sweep.ml],
    enforced by [test_compile_equiv]).  Instructions are re-executed
    only when an operand word actually changed (a pending bitmask in
    topological order), so settles after small input changes are
    cheap.  The drain picks the next pending instruction with a
    branch-free bit scan ({!ntz}).

    This module implements the primitives of {!Engine.S}; it is driven
    through {!Engine.create}, which also derives every named-port and
    whole-design operation from them. *)

module Bit := Bespoke_logic.Bit
module Netlist := Bespoke_netlist.Netlist

type t

val create : Netlist.t -> t
(** Compile [net] (or reuse a cached program for its design hash) and
    allocate fresh per-instance state. *)

val netlist : t -> Netlist.t
val reset : t -> unit

(** {1 Values} *)

val value_code : t -> int -> int
val set_gate : t -> int -> Bit.t -> unit

val set_gates_int : t -> int array -> int -> unit
(** [set_gates_int t ids v] drives input gate [ids.(i)] to bit [i] of
    [v].  When the ids are consecutive bits of one state word (the
    common case for input ports) this is a single word store. *)

val read_int_ids : t -> int array -> int option
(** Int readback of a gate-id vector, LSB first, or [None] if any bit
    is X; one word extract when the ids are chunk-aligned. *)

val rails_reader : t -> int array -> int array -> unit
(** [rails_reader t ids] resolves a gate-id vector (LSB first, at most
    62 ids) into runs of consecutive chunk bits once; the returned
    [read dst] stores its dual-rail value in [dst.(0)] (bit [i] can be
    0) and [dst.(1)] (bit [i] can be 1) with one word extract per run
    and no allocation. *)

(** {1 Evaluation} *)

val eval : t -> unit
val step : t -> unit

(** {1 Per-cycle activity} *)

val commit_cycle : t -> unit
val toggle_counts : t -> int array
val possibly_toggled : t -> bool array
val set_first_possibly_hook : t -> (int -> unit) option -> unit

val set_cycle_hook : t -> (int -> unit) option -> unit
(** [f n] runs at the end of every {!commit_cycle} with the new
    committed-cycle count [n]; with Obs on, every 64th call is timed
    into the [sim.hook_ns] histogram. *)

val sync_prev : t -> unit

(** {1 Sequential state} *)

val dff_ids : t -> int array
val dff_rails : t -> int array
val restore_dff_rails : t -> int array -> unit
val dff_slot : t -> int -> int

(** {1 Kernels} *)

val ntz : int -> int
(** [ntz b] is the index of the set bit of a one-bit word [b] (bits
    0-62): a de Bruijn multiply and a 64-entry lookup, no branch.  The
    pending-instruction scan and every per-changed-bit loop use it. *)

(** {1 Program introspection} *)

type stats = {
  gates : int;
  instructions : int;  (** flat program length *)
  word_gates : int;
      (** gates covered by vector/adder/register words (vs singletons) *)
  adders : int;  (** ripple-carry chains recovered as integer adds *)
  from_cache : bool;  (** this instance reused a memoized program *)
}

val stats : t -> stats

val cache_hits : unit -> int
val cache_misses : unit -> int
val clear_cache : unit -> unit

(** {1 Packed assumption checks} *)

type source = Net of int | Tie of Bit.t

type check = {
  c_op : Bespoke_netlist.Gate.op;  (** recomputed over [c_fanin]; Dff reads D *)
  c_fanin : source array;
  c_assumed : Bit.t;
}
(** A check is violated when its value is known and differs from
    [c_assumed]: X never convicts. *)

val checks : t -> check array -> unit -> bool
(** [checks t cs] lowers [cs] into word operations on this instance's
    dual rails (lanes grouped by opcode into words of up to 63, each
    fanin column loaded as a few shift-and-mask segments ORed with its
    tie constants) and returns the violation test: whether some check
    is violated by the current settled values, exactly the OR of the
    per-check scalar verdicts.  The lowering reads only the program,
    so it is kept with it (for the last eight check arrays, compared
    physically and held weakly; the metric
    [sim.compile.check_lowerings] counts the lowerings done): every
    instance of the design reuses it for the same array.  @raise Invalid_argument on an [Input] check or one
    with fewer fanins than its op reads. *)
