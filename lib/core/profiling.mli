(** Input-based profiling (the paper's Fig 2 baseline, and the source
    of representative switching activity for power estimates).

    Profiling cannot prove gates unusable — Fig 2's point is precisely
    that the profiled untoggled set varies with the inputs — but it
    gives per-input toggled sets and aggregate toggle counts. *)

module Benchmark := Bespoke_programs.Benchmark
module Netlist := Bespoke_netlist.Netlist

type t = {
  per_seed_toggled : (int * bool array) list;  (** seed -> toggled set *)
  union_toggled : bool array;  (** toggled by at least one input *)
  intersection_untoggled : bool array;
      (** untoggled for every profiled input (Fig 2's bar) *)
  total_toggles : int array;  (** summed toggle counts, for power *)
  total_cycles : int;
}

val profile :
  ?netlist:Netlist.t -> ?seeds:int list ->
  core:Bespoke_coreapi.Coredef.t -> Benchmark.t -> t
(** Default seeds: 1..8.  All seeds run in one bit-parallel
    {!Bespoke_sim.Engine64} simulation ({!Runner.run_gate_packed}),
    bit-identical to a scalar run per seed. *)

val untoggled_fraction_range :
  Netlist.t -> t -> float * float * float
(** [(min, max, intersection)] fraction of real gates untoggled across
    the profiled inputs — the interval and bar of Fig 2. *)
