(** Deployment guards: runtime monitors for the cut-boundary
    assumptions a tailoring makes.

    The paper's Section 5.3 risk is that a program update exercises
    logic that was cut; {!Bespoke_core.Multi.supported} catches that
    offline, but nothing observes the {e shipped} design.  This module
    closes the loop two ways:

    - {b Hardware mode} ({!instrument}): synthesize, through the
      ordinary netlist types, one comparator per checkable assumption
      (the cut gate's function recomputed over surviving bespoke nets
      and tie constants, compared against the assumed constant), a
      sticky violation DFF per monitor, and an OR-reduction into a
      1-bit [guard_violation] output port — a memory-mappable guard
      status register.  The instrumented design runs through the
      normal {!Bespoke_core.Runner} / {!Bespoke_power.Report} flow, so
      its area/power overhead is measured with the same instruments as
      the savings it protects.
    - {b Shadow mode} ({!watch_original}/{!watch_bespoke} +
      {!attach}): zero hardware — an {!Bespoke_sim.Engine.set_cycle_hook}
      probe checks the same assumptions during any scalar simulation
      (compiled, or the full reference sweep) and streams
      schema-versioned [bespoke-guard/v1] JSONL violation records carrying the cut/keep provenance chain
      from {!Bespoke_report.Provenance}, so a violation names exactly
      which cut decision it invalidates. *)

module Bit := Bespoke_logic.Bit
module Netlist := Bespoke_netlist.Netlist
module Engine := Bespoke_sim.Engine
module Provenance := Bespoke_report.Provenance
module Runner := Bespoke_core.Runner
module Benchmark := Bespoke_programs.Benchmark

(** {1 Planning} *)

(** Where a monitor input comes from in the bespoke design. *)
type source = Engine.source =
  | Net of int  (** a surviving bespoke gate's output *)
  | Tie of Bit.t  (** a constant (cut fanin, tie cell) *)

(** One hardware-checkable assumption: recompute the cut gate's
    function over its mapped fanins and compare against the constant
    deployment assumes. *)
type monitor = {
  m_gate : int;  (** original gate id of the cut gate *)
  m_check : Engine.check;
      (** the cut gate's op, its fanins mapped into the bespoke design
          (original order), and the assumed constant *)
}

type plan = {
  p_original : Netlist.t;
  p_bespoke : Netlist.t;
  p_prov : Provenance.t;
  p_assumptions : Bespoke_core.Cut.assumption list;  (** every cut gate *)
  p_monitors : monitor list;
      (** boundary assumptions checkable in hardware: every fanin maps
          to a surviving net or tie, and at least one is a live net *)
  p_implied : int;
      (** interior assumptions statically satisfied by the ties alone
          (all fanins constant) — no monitor needed *)
  p_unmonitorable : int;
      (** assumptions with a fanin the bespoke design no longer
          computes (swept dead logic): invisible to hardware monitors,
          still checked by the shadow watcher on the original design *)
}

val plan :
  original:Netlist.t ->
  bespoke:Netlist.t ->
  prov:Provenance.t ->
  possibly_toggled:bool array ->
  constants:Bit.t array ->
  plan
(** Classify every tailoring assumption.  All five arguments must
    describe one tailoring: the fields of a
    {!Bespoke_core.Runner.tailored} record and its activity report —
    {!plan_of_tailored} takes them from one. *)

val plan_of_tailored : Bespoke_core.Runner.tailored -> plan
(** {!plan} of one tailoring, e.g. {!Bespoke_core.Runner.tailor_cached}'s. *)

(** {1 Hardware instrumentation} *)

type instrumented = {
  i_design : Netlist.t;
      (** the bespoke design plus guard logic: per-monitor comparator,
          sticky violation DFF (armed one cycle after reset, so the
          reset settle does not trip it), OR-reduced into a 1-bit
          [guard_violation] output port.  Named nets: [guard_mismatch]
          and [guard_sticky] (one bit per monitor, {!instrumented}
          order), [guard_armed]. *)
  i_monitors : monitor array;  (** bit order of the guard_* nets *)
  i_base_gates : int;  (** silicon gates before instrumenting *)
  i_added_gates : int;  (** silicon gates the guard adds *)
  i_added_dffs : int;
}

val instrument : plan -> instrumented
(** Monitors only observe existing nets, so the instrumented design is
    bit-identical to the plain bespoke design on every port it shares
    with it (enforced by [test_guard]). *)

type hw_stats = {
  h_monitors : int;
  h_implied : int;
  h_unmonitorable : int;
  h_added_gates : int;
  h_added_dffs : int;
  h_area_um2 : float;  (** guard area: instrumented - bespoke *)
  h_area_pct : float;  (** as % of the bespoke design's area *)
  h_leakage_nw : float;
  h_leakage_pct : float;
}

val hw_stats : plan -> instrumented -> hw_stats
val pp_hw_stats : Format.formatter -> hw_stats -> unit

(** {1 Shadow watchers} *)

type violation = {
  v_cycle : int;  (** committed cycle the mismatch was first seen *)
  v_gate : int;  (** original gate id of the violated assumption *)
  v_assumed : Bit.t;
  v_observed : Bit.t;  (** always a known value: X never convicts *)
}

type watcher

val watch_original : plan -> watcher
(** Check {e every} assumption by reading the assumption nets directly
    — complete, but needs a simulation of the original design. *)

val watch_bespoke : plan -> watcher
(** Check the hardware-checkable monitors by recomputing each cut
    function over live bespoke nets — what the guard hardware sees,
    usable on the tailored {e or} instrumented design. *)

val attach : watcher -> Engine.t -> unit
(** Hook the watcher into an engine's per-cycle commit (any mode).
    The checks are prepared once ({!Engine.checks}: word operations on
    the compiled engine's rails); each cycle asks only whether any
    check is violated, and a cycle that says yes gets the exact
    per-check scan, counted by the [guard.exact_scans] metric.  One
    watcher per engine; violations are sticky per gate (a gate is
    reported once, at its first violating cycle). *)

val violations : watcher -> violation list
(** First violation per gate, in detection order (capped at 10_000). *)

val total_violations : watcher -> int
(** Gate-cycle mismatch count, including re-offending gates. *)

val cycles_checked : watcher -> int
val clean : watcher -> bool

(** {1 Replay} *)

type replay = {
  rp_result : (Runner.gate_outcome, string) result;
      (** [Error] carries the failure text when the workload did not
          halt within [max_cycles] — itself a symptom on a cut design *)
  rp_hw_violation : Bit.t option;
      (** final settled [guard_violation] port, when the netlist has one *)
}

val replay :
  ?max_cycles:int ->
  watcher ->
  core:Bespoke_coreapi.Coredef.t ->
  netlist:Netlist.t ->
  Benchmark.t ->
  seed:int ->
  replay
(** Run a workload (e.g. a {!Bespoke_mutation} mutant benchmark) on
    [netlist] on the compiled engine with the watcher attached.
    [max_cycles] defaults to 300_000 — a mutant on a cut design may
    never halt, and the violations seen before the deadline are the
    point. *)

(** {1 bespoke-guard/v1 stream} *)

val schema : string
(** ["bespoke-guard/v1"]. *)

val header_jsonl :
  plan -> core:string -> design:string -> workload:string -> mode:string ->
  string
(** [core] is the descriptor name the design was tailored for
    ({!Bespoke_coreapi.Coredef.t.name}) — an additive [core] field in
    the [bespoke-guard/v1] header. *)

val violation_jsonl : plan -> violation -> string
(** Carries the provenance chain: the violated gate's names, module,
    reason label and human-readable cut reason. *)

val summary_jsonl : watcher -> string

val write_stream :
  out_channel ->
  plan ->
  core:string ->
  design:string ->
  workload:string ->
  mode:string ->
  watcher ->
  unit
(** Header, one record per violation, summary. *)

val pp_violation : plan -> Format.formatter -> violation -> unit
(** Human one-liner naming the responsible cut decision. *)
