(** Input-independent gate activity analysis (paper Algorithm 1).

    Symbolically simulates a program on the gate-level system with all
    application inputs unknown (X), exploring the execution tree:

    - at an input-dependent conditional jump the explorer forks on the
      two recorded candidate targets;
    - at an input-dependent computed branch (PC with X bits and no
      recorded candidates) it falls back to bounded enumeration of the
      X bits, keeping only even ROM addresses;
    - when the pending-interrupt condition is unknown it forks on the
      interrupt flag;
    - at every PC-modifying instruction boundary the state is checked
      against the most conservative state previously observed at that
      PC: substates are pruned, otherwise the table entry is merged
      and simulation continues from the merged (more conservative)
      state, which guarantees the continuation covers every state
      merged into it.

    The result is the set of gates that can possibly toggle in {e any}
    execution with {e any} inputs, and the constant values of all the
    others.

    The exploration also records a {e schedule}: every decision it took
    (segment lengths, forks, table inserts/merges/prunes) and the
    architectural state at every instruction boundary and halted path
    end.  {!replay} drives a second design — the bespoke design, or a
    faulted copy of it — through that schedule and compares its state
    with the recorded one: the paper's symbolic verification (Section
    5.1), without simulating the original design a second time. *)

module Bit := Bespoke_logic.Bit
module System := Bespoke_coreapi.System

type config = {
  irq_x : bool;  (** drive the IRQ line with X (default true) *)
  ram_x_ranges : (int * int) list;
      (** byte-address ranges of RAM holding application inputs *)
  max_total_cycles : int;
  max_paths : int;
  computed_branch_fallback : [ `Escape | `Enumerate ];
      (** What to do when the PC is unknown at a boundary {e without}
          recorded conditional-jump candidates (a computed branch —
          RET/RETI/BR — whose target merged to X).  Every concrete
          predecessor path pushed a concrete target and was explored
          before the merge, and X data reaching post-return code is
          propagated by the conservative table at the surrounding
          control points, so [`Escape] ends such merge-artifact paths
          (counted in [escaped_paths]).  [`Enumerate] instead forks
          over every instruction-start the X pattern allows — fully
          conservative, but the spurious children execute from
          mid-sequence states and can smear X over shared memory,
          grossly over-approximating interrupt-driven programs; more
          than 1024 candidates fail the analysis. *)
  key_refinement : [ `Pc_only | `Pc_gie | `Full ];
      (** Granularity of the conservative-state table key: PC only
          (the paper's scheme), PC+GIE, or PC+GIE+stack context
          (default).  Finer keys merge strictly less, trading paths
          explored for precision; see the ablation bench. *)
}
(** The GPIO input port is always X: the analysis holds for every input
    value. *)

val default_config : config

type first_toggle = {
  ft_cycle : int;
      (** global analysis cycle at which the gate was first marked
          possibly-toggled *)
  ft_node : int;  (** execution-tree node ({!tree_node.node_id}) *)
  ft_pc : int;
      (** PC of the instruction executing at that boundary, [-1] when
          it was not concrete (e.g. during reset) *)
}
(** Provenance of a gate's first possible toggle: the answer to "which
    instruction / path first exercised gate H?". *)

type tree_node = {
  node_id : int;
  parent : int;  (** [-1] for the root (reset) node *)
  edge_label : string;
      (** how the explorer reached this node from its parent:
          ["reset"], ["pc=0x.."] (branch fork), ["irq-case"] *)
  start_pc : int;  (** first concrete PC, [-1] for the reset node *)
  mutable end_pc : int;  (** last concrete PC seen, [-1] if none *)
  mutable end_kind : string;
      (** ["halted"], ["pruned"], ["escaped"], ["forked"] (or ["open"]
          if exploration aborted inside the node) *)
  mutable node_cycles : int;  (** cycles simulated within this node *)
}
(** One node of the explored symbolic execution tree. *)

type schedule = {
  config : config;  (** the config the analysis ran with *)
  ops : int array;
      (** the decisions in exploration order, one op per word (tag in
          the low 4 bits, payload above): a segment of n cycles; a
          boundary or halted-path comparison (payload: mask over
          [arch_regs] of the registers whose rails follow in [regs]); a
          PC fork (payload: candidate count, then one word per
          candidate, [pc lsl 1] plus 1 when the table already covered
          it); an irq fork (payload: the forced sources); a table
          insert or merge (payload: the key interned to a dense int);
          an escape or prune *)
  regs : int array;
      (** the original's registers at the comparison points, as two
          dual-rail ints each (can be 0, can be 1), for the registers
          that changed since the previous comparison point *)
  ram : int array;
      (** per halted path end, the count n of data-RAM words that
          differ from the RAM at reset, then n [(word, lo, hi)]
          triples *)
  keys : int;  (** interned table keys *)
}
(** What {!replay} needs to re-play an exploration on another design. *)

type report = {
  possibly_toggled : bool array;
  constant_values : Bit.t array;
      (** reset-time value per gate; meaningful where not possibly
          toggled *)
  paths : int;  (** execution-tree paths explored *)
  merges : int;  (** conservative-superstate merges *)
  prunes : int;  (** paths pruned as substates *)
  total_cycles : int;
  halted_paths : int;
  escaped_paths : int;
      (** paths ended because an over-approximate merged superstate
          computed a PC outside the program — impossible for any
          concrete execution, reported for auditability *)
  first_toggle : first_toggle option array;
      (** per gate; [Some _] exactly for possibly-toggled gates *)
  tree : tree_node array;  (** indexed by [node_id] *)
  schedule : schedule;
}

exception Analysis_error of string

exception Shadow_mismatch of string
(** Raised by {!replay} on the first architectural-state divergence. *)

val analyze : ?config:config -> System.t -> report
(** Resets the system first.  The report's [schedule] records the
    exploration for {!replay}.  @raise Analysis_error when the
    exploration exceeds its bounds or control state becomes
    unrecoverably unknown. *)

val replay : report -> System.t -> unit
(** The paper's symbolic verification procedure (Section 5.1): reset
    the system — typically the bespoke design of the analyzed program —
    and drive it through the report's execution tree (same segments,
    forks and merges; its own stack and merge table under the
    schedule's keys), comparing its architectural state (the core's
    [arch_regs], consistent up to X, and the halt bit) with the
    recorded original at every instruction boundary and halted path
    end, and its data RAM at every halted path end.  Only this system
    is simulated.  @raise
    Shadow_mismatch on the first divergence, e.g. ["boundary: r5
    differs: original …, bespoke …"]. *)

val tree_dot : ?max_nodes:int -> report -> string
(** The explored execution tree as a Graphviz digraph (nodes colored
    by end kind, edges labeled with the fork decision).  At most
    [max_nodes] (default 4000) nodes are drawn, lowest ids first, with
    a truncation marker. *)

val exercisable_count : report -> int
