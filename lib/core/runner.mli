(** Drives a benchmark through a core's ISS and/or the gate-level
    system: loads generated inputs into RAM, applies the GPIO value
    and IRQ pulse schedule, runs to the halt port, and harvests
    results and switching activity.  This module is the one place a
    (benchmark, seed) pair becomes a stimulus ({!stimulus}).

    Every entry point takes the target core as an explicit
    {!Bespoke_coreapi.Coredef} descriptor; nothing in this module is
    tied to a concrete ISA. *)

module Benchmark := Bespoke_programs.Benchmark
module Netlist := Bespoke_netlist.Netlist
module Activity := Bespoke_analysis.Activity
module Coredef := Bespoke_coreapi.Coredef
module Lockstep := Bespoke_coreapi.Lockstep

type iss_outcome = {
  results : (int * int) list;  (** benchmark result words (addr, value) *)
  cycles : int;
  instructions : int;
  gpio_out : int;
}

(** The stimulus of one benchmark input: what a (benchmark, seed) pair
    drives into a run. *)
type stimulus = {
  ram_writes : (int * int) list;  (** generated input words (addr, value) *)
  gpio : int;  (** GPIO input value *)
  pulses : int list;
      (** retired-instruction counts at which the IRQ line is high;
          empty unless the benchmark uses interrupts *)
}

val stimulus : Benchmark.t -> seed:int -> stimulus
(** Input [seed] of the benchmark.  Every concrete run of a benchmark
    input in this module ({!loaded_iss}, {!run_gate},
    {!run_gate_packed}, {!co_simulate}) drives exactly this stimulus,
    with IRQ pulses keyed on retired instructions at every level: the
    ISS's own count, a boundary-driven count at the gate level (the
    first fetch and the boundary after an interrupt entry retire
    nothing), and the ISS's count in lockstep. *)

val loaded_iss :
  core:Coredef.t -> Benchmark.t -> seed:int -> Coredef.iss * (unit -> unit)
(** A reset ISS with input [seed]'s {!stimulus} applied, and the IRQ
    setter to call before each [step]: it drives the line from the
    pulse list, keyed on the ISS's retired-instruction count.  Every
    ISS run of a benchmark input starts here. *)

val run_iss : core:Coredef.t -> Benchmark.t -> seed:int -> iss_outcome

type gate_outcome = {
  g_results : (int * int option) list;
      (** [None] when the gate-level value contains X *)
  g_cycles : int;
  g_gpio_out : int option;
  toggles : int array;
  sim_cycles : int;  (** denominator for toggle rates *)
}

val run_gate :
  ?engine:(Netlist.t -> Bespoke_sim.Engine.t) ->
  ?attach:(Bespoke_sim.Engine.t -> unit) ->
  ?netlist:Netlist.t -> ?max_cycles:int -> core:Coredef.t ->
  Benchmark.t -> seed:int ->
  gate_outcome
(** Runs on a fresh system unless [netlist] is given (e.g. a bespoke
    design), driving input [seed]'s {!stimulus}: IRQ pulses are keyed
    on retired instructions, counted at instruction boundaries, so the
    line rises before the same instruction as on the ISS.  The run
    uses the compiled engine ({!Bespoke_sim.Engine.create}); [engine]
    exists for the differential tests and the engine benchmark, which
    pass the test oracle's sweep as the reference.
    [attach] is called on the engine once the inputs are loaded,
    before the first cycle — probe hook-up point for guard shadow
    watchers, the VCD tracer and power gating
    ({!Bespoke_sim.Engine.set_cycle_hook}) without this module
    depending on them. *)

val run_gate_packed :
  ?netlist:Netlist.t -> ?max_cycles:int -> core:Coredef.t ->
  Benchmark.t -> seeds:int list ->
  (int * gate_outcome) list
(** Run one gate-level execution per seed, packed into the lanes of a
    single bit-parallel {!Bespoke_sim.Engine64} simulation (chunks of
    up to 63 seeds).  Each lane counts its own retired instructions
    for its IRQ pulses, as [run_gate] does.  Outcomes are bit-identical
    to [run_gate] on the same seed and are returned in seed order. *)

val co_simulate :
  ?netlist:Netlist.t -> ?x_dont_care:bool ->
  core:Coredef.t -> Benchmark.t -> seed:int ->
  (Lockstep.result, Lockstep.divergence_info) Stdlib.result
(** Input-based co-simulation (paper Section 5.1): run input [seed]'s
    {!stimulus} through the gate-level design (stock, or [netlist] for
    a bespoke/faulty variant) in full lockstep with the core's ISS —
    every architectural register at every instruction boundary, exact
    cycle counts, final RAM and GPIO.  IRQ pulses are keyed on the
    ISS's retired-instruction count, so the run takes the interrupt
    schedule of {!run_iss} and {!run_gate}: the same instructions and
    cycles.  Never raises on divergence; the structured first mismatch
    is returned so the verification campaign can shrink and report it.  [x_dont_care]
    (for tailored designs, see {!Bespoke_coreapi.Lockstep.run})
    requires only the concrete gate-level bits to match. *)

exception Mismatch of string

val check_equivalence :
  ?attach:(Bespoke_sim.Engine.t -> unit) ->
  ?netlist:Netlist.t -> core:Coredef.t -> Benchmark.t -> seed:int ->
  iss_outcome
(** Run both models and require identical results, GPIO and cycle
    counts.  Returns the ISS outcome.  [attach] as in {!run_gate}.  @raise Mismatch. *)

val analyze :
  ?config:Activity.config -> ?netlist:Netlist.t -> core:Coredef.t -> Benchmark.t ->
  Activity.report * Netlist.t
(** Input-independent analysis of the benchmark (inputs per its
    [input_ranges]; GPIO X; IRQ X only if the benchmark uses it).
    Returns the report and the netlist analyzed.  The symbolic
    exploration runs on the compiled engine. *)

val resolve_analysis_config :
  ?config:Activity.config -> Benchmark.t -> Activity.config
(** The exact config {!analyze} runs with: the given one (or the
    default) with the benchmark's input ranges (and, for the default,
    its IRQ usage) applied. *)

val analyze_cached :
  ?config:Activity.config -> ?netlist:Netlist.t ->
  core:Coredef.t -> Benchmark.t -> (Activity.report * Netlist.t) * bool
(** {!analyze} through the content-addressed flow cache: keyed by
    (core fingerprint, binary image hash, netlist hash, config
    fingerprint), so a repeat analysis of the same tuple returns the
    memoized report.  The returned flag is [true] on a cache hit. *)

(** A benchmark's tailored design, with everything that explains it. *)
type tailored = {
  report : Activity.report;  (** the default analysis of the stock core *)
  original : Netlist.t;  (** the stock netlist that was analyzed and cut *)
  bespoke : Netlist.t;  (** cut, stitched, re-synthesized and downsized *)
  stats : Cut.stats;
  prov : Bespoke_report.Provenance.t;
      (** why each original gate was cut or kept *)
}

val tailor_cached : core:Coredef.t -> Benchmark.t -> tailored
(** The flow's one tailoring: {!analyze_cached} with the default
    config, then {!Cut.tailor_explained} — memoized in the ["tailor"]
    flow cache under the analysis key plus a ["tailor"] tag, so the
    consumers of a benchmark's bespoke design (report, verify, guard,
    export, campaign jobs) share a single cut.  The cache keeps the
    last two tailorings: consumers of one benchmark run back to back,
    and a tailoring is too large to keep for every benchmark. *)

val image : core:Coredef.t -> Benchmark.t -> Coredef.image
(** Assemble the benchmark's source with the core's assembler,
    memoized per (core, source digest) — so mutated sources never
    collide with the pristine benchmark.  Domain-safe: concurrent
    callers get the same physical image. *)

val shared_netlist : Coredef.t -> Netlist.t
(** One memoized copy of the core's stock netlist, shared by callers
    that do not mutate netlists.  Domain-safe: it is built once, and
    every caller on any domain gets the same physical netlist. *)

val shared_netlist_hash : Coredef.t -> string
(** {!Bespoke_netlist.Serial.hash} of {!shared_netlist} (forces the
    netlist build; the hash itself is memoized per netlist value). *)

val image_hash : Coredef.image -> string
(** Content hash of a binary image (ROM words + entry point) — a flow
    cache key component. *)
