(** Three-valued gate-level simulation: the seam every harness drives.

    One engine instance simulates one netlist.  Values are ternary
    ({0,1,X}); running it with fully known inputs makes it an exact
    two-valued simulator, running it with X inputs makes it the
    symbolic simulator of the paper's Section 3.1.

    An engine is an implementation of the primitives {!S} packed with
    its state.  {!create} packs the compiled word-level program
    ({!Compile}), the library's only scalar engine; the differential
    tests pack a plain levelized sweep (the test oracle in
    [test/oracle/sweep.ml]) through {!make} and check the two
    bit-identical.  Every other operation below is written once, over
    the primitives.

    Protocol per clock cycle:
    {ol {- [step] latches every DFF's sampled next-state and
           re-evaluates combinational logic;}
        {- the harness sets input ports (memory read data, interrupt
           pins, ...) and calls [eval] to settle;}
        {- the harness samples outputs (memory write ports, ...);}
        {- [commit_cycle] records per-gate activity for this cycle.}} *)

module Bit := Bespoke_logic.Bit
module Bvec := Bespoke_logic.Bvec
module Netlist := Bespoke_netlist.Netlist

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

(** {1 Primitives} *)

module type S = sig
  type t

  val netlist : t -> Netlist.t

  val reset : t -> unit
  (** DFFs to their reset values, inputs to X, combinational settle,
      and activity baseline re-initialized. *)

  val eval : t -> unit
  (** Settle all combinational logic. *)

  val step : t -> unit
  (** Clock edge: latch DFFs, then [eval]. *)

  val commit_cycle : t -> unit
  (** Compare every gate's settled value against the previous
      committed cycle; a gate is charged one toggle when the value
      changed, and is marked possibly-toggled when it changed {e or}
      is X (paper: an X propagating through a gate counts as a
      possible toggle).  Then runs the cycle hook. *)

  val value_code : t -> int -> int
  (** A gate's settled value as its code (0/1/2=X), allocation-free. *)

  val set_gate : t -> int -> Bit.t -> unit
  (** Only valid on [Input] gates. *)

  val set_gates_int : t -> int array -> int -> unit
  (** Drive input gate [ids.(i)] to bit [i] of the int (LSB first).
      Only valid on [Input] gates. *)

  val read_int_ids : t -> int array -> int option
  (** Integer value of the given gate bits (LSB first), [None] if any
      bit is X.  Allocation-free; callers that probe the same signal
      every cycle resolve its ids once and use this instead of
      {!read_int}. *)

  val rails_reader : t -> int array -> int array -> unit
  (** [rails_reader t ids] resolves the gate bits (LSB first, at most
      62) once and returns [read]: [read dst] stores their current
      dual-rail value in [dst.(0)] (bit [i] can be 0) and [dst.(1)]
      (bit [i] can be 1), X setting both.  Allocation-free; for
      signals probed at every instruction boundary. *)

  val toggle_counts : t -> int array
  (** Concrete toggle counter per gate (X-involved changes also
      count). *)

  val possibly_toggled : t -> bool array
  (** The symbolic "exercisable" marking used by gate activity
      analysis. *)

  val set_first_possibly_hook : t -> (int -> unit) option -> unit
  (** Provenance hook: [f id] is called from [commit_cycle] the first
      time gate [id] is marked possibly-toggled (once per gate).  Gate activity analysis uses it to
      attribute each gate's first toggle to an execution-tree node /
      cycle / PC. *)

  val set_cycle_hook : t -> (int -> unit) option -> unit
  (** Probe hook: [f n] is called at the end of every [commit_cycle]
      with the new committed-cycle count [n].  Zero cost when unset.
      The guard shadow watcher uses it to check cut-boundary
      assumptions against live values. *)

  val dff_ids : t -> int array
  (** The DFF gate ids, in ascending order: the engine's own array,
      so callers must not mutate it. *)

  val dff_rails : t -> int array
  (** The DFF state as a fresh array of dual-rail word pairs: bit [b]
      of [r.(2k)] is set when the DFF in slot [(k lsl 6) lor b] can be
      0, of [r.(2k+1)] when it can be 1 (X sets both; a bit no DFF
      holds is clear in both).  The compiled engine's pairs are its
      DFF chunks' own words, so this is one copy per chunk. *)

  val restore_dff_rails : t -> int array -> unit
  (** Overwrite the DFF outputs from a {!dff_rails} array of this
      engine and re-settle combinational logic, re-evaluating only the
      readers of bits that changed.  Does not touch activity. *)

  val dff_slot : t -> int -> int
  (** [dff_slot t id]: the slot of DFF gate [id] in {!dff_rails}
      arrays, [-1] if [id] is not a DFF.  Resolve it once; it is not
      meant for inner loops. *)

  val sync_prev : t -> unit
  (** Make the current settled values the activity baseline without
      charging toggles.  Called after restoring an execution-tree
      snapshot, so the jump between unrelated simulation states is not
      itself counted as switching activity. *)

  val checks : t -> check array -> unit -> bool
  (** [checks t cs] prepares [cs] for repeated evaluation on this
      engine and returns the violation test: whether any check
      {!convicts} at the current settled values.  An implementation
      may reuse the preparation for the same (physically equal) array
      on another instance of the same design, so [cs] must not be
      mutated afterwards. *)
end

type t

val make : (module S with type t = 'a) -> 'a -> t
val create : Netlist.t -> t
(** The compiled engine ({!Compile.create}) over [net]. *)

include S with type t := t
(** The primitives, on the packed implementation. *)

(** {1 Derived operations} *)

val value : t -> int -> Bit.t

val read : t -> string -> Bvec.t
(** Read a named net, output port or input port. *)

val read_int : t -> string -> int option
val set_input : t -> string -> Bvec.t -> unit
val set_input_int : t -> string -> int -> unit
val set_input_x : t -> string -> unit
val set_all_inputs_x : t -> unit

val snapshot_values : t -> Bvec.t
(** Every gate's current settled value (for recording the constant
    values of never-toggled gates). *)

val dff_state : t -> Bvec.t
(** Current DFF outputs, in [dff_ids] order: a per-bit view of
    {!dff_rails}. *)

(** {2 DFF rails}

    Word operations over {!dff_rails} arrays, exact against the
    per-bit semantics of {!Bit.subsumes}, {!Bit.merge} and assigning
    one bit. *)

val slot_code : int array -> int -> int
(** The value code (0/1/2=X) at a slot. *)

val set_slot : int array -> int -> Bit.t -> unit
(** Set the bit at a slot, in place. *)

val rails_subsumes : general:int array -> specific:int array -> bool
(** Every value [specific] allows, [general] allows too. *)

val rails_merge : int array -> int array -> int array
(** The least state subsuming both: the rails ORed. *)

val check_code : t -> check -> int
(** The check's value code (0/1/2=X) at the current settled values:
    {!Bespoke_netlist.Gate.eval} over its fanins, one check at a
    time. *)

val convicts : check -> int -> bool
(** [convicts c code]: [code] is known and differs from [c_assumed]. *)
