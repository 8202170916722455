(** Levelized three-valued gate-level simulator.

    One engine instance simulates one netlist.  Values are ternary
    ({0,1,X}); running it with fully known inputs makes it an exact
    two-valued simulator, running it with X inputs makes it the
    symbolic simulator of the paper's Section 3.1.

    Protocol per clock cycle:
    {ol {- [step] latches every DFF's sampled next-state and
           re-evaluates combinational logic;}
        {- the harness sets input ports (memory read data, interrupt
           pins, ...) and calls [eval] or [eval_cone] to settle;}
        {- the harness samples outputs (memory write ports, ...);}
        {- [commit_cycle] records per-gate activity for this cycle.}} *)

module Bit := Bespoke_logic.Bit
module Bvec := Bespoke_logic.Bvec
module Netlist := Bespoke_netlist.Netlist

type t

type mode =
  | Full
      (** re-evaluate the whole levelized order on every settle: the
          reference the other engines are checked against *)
  | Compiled
      (** word-level compiled evaluation (see {!Compile}): the netlist
          is lowered once into a flat instruction program over native
          63-bit words (vector ops, recovered integer adders, packed
          registers) and memoized by design hash.  Values, toggle
          counts and possibly-toggled flags are bit-identical to
          [Full] — enforced by [test_compile_equiv]. *)

val create : ?mode:mode -> Netlist.t -> t
(** [mode] defaults to [Compiled]. *)

val netlist : t -> Netlist.t

val reset : t -> unit
(** DFFs to their reset values, inputs to X, combinational settle, and
    activity baseline re-initialized. *)

(** {1 Values} *)

val value : t -> int -> Bit.t

val value_code : t -> int -> int
(** [value] as its integer code (0/1/2=X), allocation-free. *)

val read_int_ids : t -> int array -> int option
(** Integer value of the given gate bits (LSB first), [None] if any
    bit is X.  Allocation-free; callers that probe the same signal
    every cycle should resolve its ids once and use this instead of
    {!read_int}. *)

val rails_reader : t -> int array -> int array -> unit
(** [rails_reader t ids] resolves the gate bits (LSB first, at most 62)
    once and returns [read]: [read dst] stores their current dual-rail
    value in [dst.(0)] (bit [i] can be 0) and [dst.(1)] (bit [i] can
    be 1), X setting both.  Allocation-free; for signals probed at
    every instruction boundary. *)

val set_gate : t -> int -> Bit.t -> unit
(** Only valid on [Input] gates. *)

val set_gates_int : t -> int array -> int -> unit
(** Drive input gate [ids.(i)] to bit [i] of the int (LSB first).
    Only valid on [Input] gates; in compiled mode a chunk-aligned port
    is driven with a single word store. *)

val read : t -> string -> Bvec.t
(** Read a named net, output port or input port. *)

val read_int : t -> string -> int option
val set_input : t -> string -> Bvec.t -> unit
val set_input_int : t -> string -> int -> unit
val set_input_x : t -> string -> unit
val set_all_inputs_x : t -> unit

(** {1 Evaluation} *)

val eval : t -> unit
(** Settle all combinational logic.  In [Compiled] mode only
    instructions downstream of changed words re-execute; the settled
    values are identical to a [Full] sweep. *)

type cone

val make_cone : t -> int array -> cone
(** Precompute the forward combinational cone of the given source
    gates (typically an input port's bits), for cheap incremental
    re-evaluation.  Empty in [Compiled] mode, whose pending-instruction
    tracking subsumes cones. *)

val eval_cone : t -> cone -> unit

val step : t -> unit
(** Clock edge: latch DFFs, then full [eval]. *)

(** {1 Per-cycle activity} *)

val commit_cycle : t -> unit
(** Compare every gate's settled value against the previous committed
    cycle; a gate is charged one toggle when the value changed, and is
    marked possibly-toggled when it changed {e or} is X (paper: an X
    propagating through a gate counts as a possible toggle). *)

val toggle_counts : t -> int array
(** Concrete toggle counter per gate (X-involved changes also count). *)

val possibly_toggled : t -> bool array
(** The symbolic "exercisable" marking used by gate activity analysis. *)

val merge_possibly_toggled_into : t -> bool array -> unit
val clear_activity : t -> unit

val set_first_possibly_hook : t -> (int -> unit) option -> unit
(** Provenance hook: [f id] is called from {!commit_cycle} the first
    time gate [id] is marked possibly-toggled (once per gate until
    {!clear_activity}/{!reset}).  Costs one byte-compare per marking
    when unset.  Gate activity analysis uses it to attribute each
    gate's first toggle to an execution-tree node / cycle / PC. *)

val set_cycle_hook : t -> (int -> unit) option -> unit
(** Probe hook: [f n] is called at the end of every {!commit_cycle}
    with the new committed-cycle count [n], in every mode (including
    [Compiled]).  Zero cost when unset.  With Obs on, every 64th call
    is timed into the [sim.hook_ns] histogram.  The guard shadow
    watcher uses it to check cut-boundary assumptions against live
    values. *)

val sync_prev : t -> unit
(** Make the current settled values the activity baseline without
    charging toggles.  Called after restoring an execution-tree
    snapshot, so the jump between unrelated simulation states is not
    itself counted as switching activity. *)

val snapshot_values : t -> Bespoke_logic.Bvec.t
(** Every gate's current settled value (for recording the constant
    values of never-toggled gates). *)

(** {1 Sequential state (for the execution-tree explorer)} *)

val dff_ids : t -> int array

val dff_state : t -> Bvec.t
(** Current DFF outputs, in [dff_ids] order. *)

val restore_dff_state : t -> Bvec.t -> unit
(** Overwrite DFF outputs and re-settle combinational logic.  Does not
    touch activity. *)

(** {1 Assumption checks}

    A check recomputes one gate function over live gate values and tie
    constants and compares it with an assumed constant; the guard
    shadow watcher checks every cut assumption this way on each
    committed cycle. *)

type source = Compile.source = Net of int | Tie of Bit.t

type check = Compile.check = {
  c_op : Bespoke_netlist.Gate.op;  (** a [Dff] is checked as Buf of its D *)
  c_fanin : source array;
  c_assumed : Bit.t;
}

val check_code : t -> check -> int
(** The check's value code (0/1/2=X) at the current settled values:
    {!Bespoke_netlist.Gate.eval} over its fanins, one check at a
    time. *)

val convicts : check -> int -> bool
(** [convicts c code]: [code] is known and differs from [c_assumed]. *)

type checks

val checks : t -> check array -> checks
(** Prepare checks for repeated evaluation on this engine.  In
    [Compiled] mode they are lowered once into word operations on the
    engine's dual-rail state ({!Compile.lower_checks}); in [Full] mode
    they stay per-check scalar evaluations, the oracle the packed
    program is tested against. *)

val any_violated : checks -> bool
(** Whether any check {!convicts} at the current settled values.
    Allocation-free in [Compiled] mode. *)
