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
module Bvec := Bespoke_logic.Bvec
module Netlist := Bespoke_netlist.Netlist

type t

val max_lanes : int
(** 63: native ints carry 63 usable bits. *)

val create : ?lanes:int -> Netlist.t -> t
(** [lanes] defaults to {!max_lanes}; must be within [1..max_lanes]. *)

val lanes : t -> int
val netlist : t -> Netlist.t

val reset : t -> unit
(** DFFs to reset values and inputs to X in every lane, full settle,
    activity baseline re-initialized.  Also discards any partially
    propagated event state. *)

(** {1 Values} *)

val value_lane : t -> int -> int -> Bit.t
(** [value_lane t gate lane]. *)

val set_gate_packed : t -> int -> lo:int -> hi:int -> unit
(** Raw dual-rail write of an [Input] gate (lane bits beyond the lane
    count are masked off). *)

val set_gate_lane : t -> int -> int -> Bit.t -> unit
(** [set_gate_lane t gate lane b]: update one lane of an input. *)

val set_input_lanes : t -> string -> Bvec.t array -> unit
(** Per-lane values for a whole input port; lanes beyond the array are
    set to X. *)

val set_input_uniform : t -> string -> Bvec.t -> unit
(** Same value in every lane. *)

val read_lane : t -> string -> int -> Bvec.t
val read_lane_int : t -> string -> int -> int option

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

val set_cycle_hook : t -> (int -> unit) option -> unit
(** Probe hook: [f n] is called at the end of every {!commit_cycle}
    with the new committed count [n].  Zero cost when unset (cf.
    {!Engine.set_cycle_hook}). *)

val cycles_committed : t -> int
val toggle_counts_lane : t -> int -> int array
val possibly_toggled_lane : t -> int -> bool array

val sync_prev : t -> unit
(** Make current values the activity baseline without charging
    toggles (cf. {!Engine.sync_prev}). *)
