(** Bit-parallel packed gate-level simulator: up to 63 independent
    concrete simulations ("lanes") of the same netlist evaluated at
    once.

    Lane values are ternary, encoded dual-rail across two native-int
    words per gate: rail [lo] carries "can be 0", rail [hi] "can be 1"
    (X = both).  Gate functions are whole-word boolean operations with
    exact Kleene semantics per lane, so each lane behaves bit-for-bit
    like a scalar {!Engine} run — the packed profiling path relies on
    this and [test_engine_equiv] enforces it.

    The evaluation core is an event-driven dirty-queue levelized
    sweep: only the fanout of gates whose packed word
    actually changed is re-evaluated, and per-cycle activity commits
    walk the touched list only. *)

module Bit := Bespoke_logic.Bit
module Netlist := Bespoke_netlist.Netlist

type t

val max_lanes : int
(** 63: native ints carry 63 usable bits. *)

val create : ?lanes:int -> Netlist.t -> t
(** [lanes] defaults to {!max_lanes}; must be within [1..max_lanes]. *)

val reset : t -> unit
(** DFFs to reset values and inputs to X in every lane, full settle,
    activity baseline re-initialized.  Also discards any partially
    propagated event state. *)

(** {1 Values} *)

val value_lane : t -> int -> int -> Bit.t
(** [value_lane t gate lane]. *)

val rail_lo : t -> int -> int
val rail_hi : t -> int -> int
(** A gate's raw rails across all lanes: bit [lane] of [rail_lo] is
    set when that lane's value can be 0, of [rail_hi] when it can be
    1.  Allocation-free, for harnesses that read whole ports lane by
    lane. *)

val set_gate_packed : t -> int -> lo:int -> hi:int -> unit
(** Raw dual-rail write of an [Input] gate (lane bits beyond the lane
    count are masked off). *)

val set_gate_lane : t -> int -> int -> Bit.t -> unit
(** [set_gate_lane t gate lane b]: update one lane of an input. *)

(** {1 Evaluation} *)

val eval : t -> unit
(** Drain the dirty queue (event-driven settle). *)

val step : t -> unit
(** Clock edge in every lane: latch DFF words, then settle. *)

(** {1 Per-cycle activity} *)

val commit_cycle : ?active:int -> t -> unit
(** Commit the settled cycle.  [active] is a lane bitmask (default
    all): only active lanes are charged toggles / possibly-toggled
    marks, so lanes whose simulation has ended (halted CPU) stop
    accumulating activity exactly like a scalar run that has stopped.
    Lanes must leave the active set monotonically. *)

val toggle_counts_lane : t -> int -> int array
val possibly_toggled_lane : t -> int -> bool array

