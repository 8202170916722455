(** Drives a benchmark through a core's ISS and/or the gate-level
    system: loads generated inputs into RAM, applies the GPIO value
    and IRQ pulse schedule, runs to the halt port, and harvests
    results and switching activity.

    Every entry point takes the target core as an explicit
    {!Bespoke_coreapi.Coredef} descriptor; nothing in this module is
    tied to a concrete ISA. *)

module Benchmark := Bespoke_programs.Benchmark
module Netlist := Bespoke_netlist.Netlist
module Activity := Bespoke_analysis.Activity
module Coredef := Bespoke_coreapi.Coredef
module Lockstep := Bespoke_coreapi.Lockstep

type engine = Full | Packed | Compiled
(** Uniform gate-simulation engine selector, shared by the library
    entry points and the CLI's [--engine] flag: [Full] re-evaluates
    every gate per settle (the reference), [Packed] packs one run per
    seed into Engine64 lanes, [Compiled] executes the memoized
    word-level program ({!Bespoke_sim.Compile}).  All three are
    bit-identical in results, cycle counts and per-gate activity. *)

val all_engines : engine list

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

val mode_of_engine : engine -> Bespoke_sim.Engine.mode
(** @raise Invalid_argument on [Packed] (seed-parallel, not a scalar
    engine mode). *)

type iss_outcome = {
  results : (int * int) list;  (** benchmark result words (addr, value) *)
  cycles : int;
  instructions : int;
  gpio_out : int;
}

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
  ?engine:engine ->
  ?attach:(Bespoke_sim.Engine.t -> unit) ->
  ?attach64:(Bespoke_sim.Engine64.t -> unit) ->
  ?netlist:Netlist.t -> ?max_cycles:int -> core:Coredef.t ->
  Benchmark.t -> seed:int ->
  gate_outcome
(** Runs on a fresh system unless [netlist] is given (e.g. a bespoke
    design).  IRQ pulses are applied at the benchmark's instruction
    indices.  [engine] selects the gate-evaluation strategy (default
    [Compiled]; [Packed] runs a one-lane packed simulation).
    [attach] ([attach64] for [Packed]) is called on the freshly
    created engine before the run — probe hook-up point for guard
    shadow watchers ({!Bespoke_sim.Engine.set_cycle_hook}) without
    this module depending on them. *)

val run_gate_packed :
  ?attach64:(Bespoke_sim.Engine64.t -> unit) ->
  ?netlist:Netlist.t -> ?max_cycles:int -> core:Coredef.t ->
  Benchmark.t -> seeds:int list ->
  (int * gate_outcome) list
(** Run one gate-level execution per seed, packed into the lanes of a
    single bit-parallel {!Bespoke_sim.Engine64} simulation (chunks of
    up to 63 seeds).  Outcomes are bit-identical to [run_gate] on the
    same seed and are returned in seed order. *)

val co_simulate :
  ?engine:engine -> ?netlist:Netlist.t -> ?x_dont_care:bool ->
  core:Coredef.t -> Benchmark.t -> seed:int ->
  (Lockstep.result, Lockstep.divergence_info) Stdlib.result
(** Input-based co-simulation (paper Section 5.1): run the benchmark's
    generated inputs for [seed] through the gate-level design (stock,
    or [netlist] for a bespoke/faulty variant) in full lockstep with
    the core's ISS — every architectural register at every instruction
    boundary, exact cycle counts, final RAM and GPIO.  Never raises on
    divergence; the structured first mismatch is returned so the
    verification campaign can shrink and report it.  [engine] (default
    [Compiled]) selects the scalar gate-level engine;
    @raise Invalid_argument on [Packed].  [x_dont_care]
    (for tailored designs, see {!Bespoke_coreapi.Lockstep.run})
    requires only the concrete gate-level bits to match. *)

exception Mismatch of string

val check_equivalence :
  ?engine:engine ->
  ?attach:(Bespoke_sim.Engine.t -> unit) ->
  ?attach64:(Bespoke_sim.Engine64.t -> unit) ->
  ?netlist:Netlist.t -> core:Coredef.t -> Benchmark.t -> seed:int ->
  iss_outcome
(** Run both models and require identical results, GPIO and cycle
    counts.  Returns the ISS outcome.  [attach]/[attach64] as in
    {!run_gate}.  @raise Mismatch. *)

val analyze :
  ?config:Activity.config -> ?engine:engine -> ?netlist:Netlist.t ->
  core:Coredef.t -> Benchmark.t -> Activity.report * Netlist.t
(** Input-independent analysis of the benchmark (inputs per its
    [input_ranges]; GPIO X; IRQ X only if the benchmark uses it).
    Returns the report and the netlist analyzed.  [engine] (default
    [Compiled]) selects the scalar engine driving the symbolic
    exploration; @raise Invalid_argument on [Packed]. *)

val resolve_analysis_config :
  ?config:Activity.config -> Benchmark.t -> Activity.config
(** The exact config {!analyze} runs with: the given one (or the
    default) with the benchmark's input ranges (and, for the default,
    its IRQ usage) applied. *)

val analyze_cached :
  ?config:Activity.config -> ?engine:engine -> ?netlist:Netlist.t ->
  core:Coredef.t -> Benchmark.t -> (Activity.report * Netlist.t) * bool
(** {!analyze} through the content-addressed flow cache: keyed by
    (core fingerprint, binary image hash, netlist hash, config
    fingerprint), so a repeat analysis of the same tuple returns the
    memoized report.  The returned flag is [true] on a cache hit.
    [engine] is not part of the key (all engines are bit-identical).
    Bypasses the cache (and reports a miss) when the config carries a
    [probe] or [verbose]. *)

val image : core:Coredef.t -> Benchmark.t -> Coredef.image
(** Assemble the benchmark's source with the core's assembler,
    memoized per (core, source digest) — so mutated sources never
    collide with the pristine benchmark. *)

val shared_netlist : Coredef.t -> Netlist.t
(** One memoized copy of the core's stock netlist, shared by callers
    that do not mutate netlists.  Force this {e and}
    {!shared_netlist_hash} in the parent before fanning out with
    [Pool] — the memo table is not domain-safe. *)

val shared_netlist_hash : Coredef.t -> string
(** Memoized {!Bespoke_netlist.Serial.hash} of {!shared_netlist}
    (forces the netlist build). *)

val image_hash : Coredef.image -> string
(** Content hash of a binary image (ROM words + entry point) — a flow
    cache key component. *)

val netlist_hash : core:Coredef.t -> Netlist.t -> string
(** [Serial.hash], short-circuited to the memoized hash when given the
    core's (already forced) shared netlist. *)
