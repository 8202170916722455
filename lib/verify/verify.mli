(** The verification-campaign subsystem (paper Section 5.1, Table 3):
    prove a bespoke netlist equivalent to the original design on the
    application, and prove the {e checker itself} trustworthy by
    injecting netlist faults it must catch.

    Three layers:

    + {b equivalence checking} — symbolic state-trace comparison
      (the original design's execution tree re-played on the bespoke
      design with architectural state compared at every boundary) plus
      coverage-directed input-based lockstep co-simulation (the
      {!Bespoke_coverage.Coverage.explore} seed set, each seed run
      gate-level vs. the golden ISS);
    + {b adversarial fault injection} — {!Fault} mutants of the
      bespoke netlist, each required to be reported non-equivalent by
      layer 1, yielding a mutation-kill score;
    + {b failing-case shrinking} — every divergence is reduced by
      {!Shrink} to a minimal seed list and the minimal diverging
      instruction index before it is reported.

    Campaigns over several benchmarks fan out across the
    [BESPOKE_JOBS] domain pool; everything is instrumented with
    [verify.*] spans and metrics. *)

module B := Bespoke_programs.Benchmark
module Coredef := Bespoke_coreapi.Coredef
module Netlist := Bespoke_netlist.Netlist
module Lockstep := Bespoke_coreapi.Lockstep
module Coverage := Bespoke_coverage.Coverage

type input_run = {
  ir_seed : int;
  ir_time_s : float;
  ir_diverged : Lockstep.divergence_info option;
}

type symbolic = {
  sym_ok : bool;
  sym_paths : int;  (** execution-tree paths compared *)
  sym_time_s : float;
  sym_detail : string option;  (** the mismatch, when [not sym_ok] *)
}

type kill =
  | Killed_input of Shrink.repro
      (** caught by input-based co-simulation; the repro is shrunk *)
  | Killed_symbolic of string
      (** survived every input, caught by the symbolic replay *)
  | Survived  (** not distinguished by layer 1: equivalent or masked *)

type fault_result = {
  fault : Fault.t;
  kill : kill;
  fr_time_s : float;
}

type guard_check = {
  gc_assumptions : int;  (** cut assumptions recorded by the tailoring *)
  gc_monitors : int;  (** assumptions with a live boundary monitor *)
  gc_implied : int;  (** interior assumptions implied by the monitors *)
  gc_unmonitorable : int;  (** swept with the dead logic — unmappable *)
  gc_cycles : int;  (** cycles the shadow watcher checked *)
  gc_violations : int;  (** must be 0: the design's own application *)
}
(** Deployment-guard shadow check (the fourth, free, layer): the
    benchmark replayed on its own bespoke design with the
    {!Bespoke_guard.Guard} cut-assumption watcher attached.  Tailoring
    is only sound for the application it was derived from, so this
    replay must be silent; a violation here is a tailoring bug even if
    every equivalence layer passed. *)

type campaign = {
  benchmark : string;
  core : string;  (** descriptor name of the core the campaign ran on *)
  gates_original : int;
  gates_bespoke : int;
  symbolic : symbolic;
  inputs : input_run list;  (** one per kept coverage seed *)
  coverage : Coverage.stats;
  gate_pct : float;
      (** fraction of the bespoke design's real gates toggled by the
          input runs (Table 3's gate-coverage column) *)
  equivalent : bool;  (** layer-1 verdict on the unfaulted design *)
  repro : Shrink.repro option;
      (** shrunk repro when [not equivalent] via inputs *)
  faults : fault_result list;
  guard : guard_check;  (** cut-assumption shadow replay, must be clean *)
  total_time_s : float;
}

type score = {
  injected : int;
  killed_input : int;
  killed_symbolic : int;
  survived : int;
  detectable : int;
  detectable_killed : int;
}

val kill_stats : campaign -> score
val kill_score_pct : score -> float
(** Killed fraction over {e all} injected faults, in percent (100 when
    nothing was injected). *)

val detectable_score_pct : score -> float
(** Killed fraction over the detectable (stuck-at on an exercised
    gate) faults — the campaign's acceptance bar is 100. *)

val symbolic_check :
  core:Coredef.t -> report:Bespoke_analysis.Activity.report ->
  shadow_net:Netlist.t -> B.t -> symbolic
(** The symbolic layer alone: {!Bespoke_analysis.Activity.replay} of
    [report] — the original design's analysis of the benchmark, whose
    schedule recorded its input-independent execution tree — on
    [shadow_net], comparing architectural state at every instruction
    boundary and the data RAM at every halted path end.  Only
    [shadow_net] is simulated.  A mismatch gives [sym_ok = false] with
    its text in [sym_detail]. *)

val check_benchmark :
  ?faults:int -> ?seed:int -> ?explore_budget:int ->
  core:Coredef.t -> B.t -> campaign
(** Run the full three-layer campaign on one benchmark of [core]:
    tailor it, check equivalence symbolically and on the explored
    input set, then inject [faults] (default 8) netlist faults drawn
    with PRNG [seed] (default 1) and require layer 1 to kill them.
    Every gate-level layer runs on the compiled engine.
    [explore_budget] is passed to
    {!Bespoke_coverage.Coverage.explore}. *)

val run_campaign :
  ?faults:int -> ?seed:int -> ?explore_budget:int ->
  ?jobs:int -> core:Coredef.t -> B.t list -> campaign list
(** {!check_benchmark} over several benchmarks on the
    {!Bespoke_core.Pool} (jobs default [BESPOKE_JOBS]). *)

val schema : string
(** ["bespoke-verify/v1"]. *)

val to_json : campaign list -> string
(** The whole campaign as one schema-versioned JSON artifact:
    Table 3-style per-benchmark columns (paths, inputs, per-input
    time, line/branch/branch-direction/gate coverage, verdict) plus
    the fault-injection table with per-fault kill class and shrunk
    repros. *)

val pp_text : Format.formatter -> campaign list -> unit
(** Human-readable campaign summary (one block per benchmark). *)
