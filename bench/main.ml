(* Experiment harness: regenerates every table and figure of the
   paper's evaluation.  Each table/figure is one [run_*] function,
   registered in [sections]; `dune exec bench/main.exe` runs them all,
   `-- --only fig11` runs one.  EXPERIMENTS.md records paper-vs-
   measured values from a full run. *)

module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Isa = Bespoke_isa.Isa
module B = Bespoke_programs.Benchmark
module Rtos = Bespoke_programs.Rtos
module Subneg = Bespoke_programs.Subneg
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Usage = Bespoke_core.Usage
module Multi = Bespoke_core.Multi
module Profiling = Bespoke_core.Profiling
module Module_prune = Bespoke_core.Module_prune
module Power_gating = Bespoke_core.Power_gating
module Report = Bespoke_power.Report
module Sta = Bespoke_power.Sta
module Voltage = Bespoke_power.Voltage
module Mutation = Bespoke_mutation.Mutation
module Coverage = Bespoke_coverage.Coverage
module System = Bespoke_coreapi.System
module Engine = Bespoke_sim.Engine
module Compile = Bespoke_sim.Compile
module Sweep = Bespoke_oracle.Sweep
module Pool = Bespoke_core.Pool
module Flowcache = Bespoke_core.Flowcache
module Campaign = Bespoke_campaign.Campaign
module Guard = Bespoke_guard.Guard
module Obs = Bespoke_obs.Obs
module J = Obs.Json

let freq_hz = 1e8
let profile_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The paper's evaluation targets the MSP430; every table and figure
   below runs the flow against that core.  The bench-sim section also
   records per-core throughput rows for the other registered cores. *)
let core = Bespoke_cpu.Msp430.core

let printf = Printf.printf
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Shared, lazily computed per-benchmark context                        *)

type ctx = {
  bench : B.t;
  report : Activity.report;
  analysis_seconds : float;
  bespoke : Netlist.t;
  stats : Cut.stats;
  baseline_profile : Profiling.t Lazy.t;
  bespoke_profile : Profiling.t Lazy.t;
}

let stock () = Runner.shared_netlist core

let ctx_cache : (string, ctx) Hashtbl.t = Hashtbl.create 32

let compute_ctx (b : B.t) : ctx =
  let (report, net), analysis_seconds = time (fun () -> Runner.analyze ~core b) in
  let bespoke, stats =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  {
    bench = b;
    report;
    analysis_seconds;
    bespoke;
    stats;
    baseline_profile =
      lazy (Profiling.profile ~core ~netlist:net ~seeds:profile_seeds b);
    bespoke_profile =
      lazy (Profiling.profile ~core ~netlist:bespoke ~seeds:profile_seeds b);
  }

let ctx_of (b : B.t) : ctx =
  match Hashtbl.find_opt ctx_cache b.B.name with
  | Some c -> c
  | None ->
    let c = compute_ctx b in
    Hashtbl.replace ctx_cache b.B.name c;
    c

(* With BESPOKE_JOBS > 1 the per-benchmark analyses (the dominant cost
   of a full run) are computed up front on the domain pool; the cache
   itself is only touched from the main domain. *)
let prewarm_ctxs () =
  if Pool.default_jobs () > 1 then begin
    let todo =
      List.filter (fun (b : B.t) -> not (Hashtbl.mem ctx_cache b.B.name)) B.table1
    in
    let cs = Pool.map (fun b -> (b, compute_ctx b)) todo in
    List.iter (fun ((b : B.t), c) -> Hashtbl.replace ctx_cache b.B.name c) cs
  end

let baseline_power (c : ctx) =
  let p = Lazy.force c.baseline_profile in
  Report.power ~freq_hz ~toggles:p.Profiling.total_toggles
    ~cycles:p.Profiling.total_cycles (stock ())

let bespoke_power ?(vdd = 1.0) (c : ctx) =
  let p = Lazy.force c.bespoke_profile in
  Report.power ~vdd ~freq_hz ~toggles:p.Profiling.total_toggles
    ~cycles:p.Profiling.total_cycles c.bespoke

let pct x = 100.0 *. x
let saving now base = pct (1.0 -. (now /. base))

let baseline_sta = lazy (Sta.analyze (stock ()))
let clock_period_ps () = (Lazy.force baseline_sta).Sta.critical_path_ps

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

let run_table1 () =
  printf "=== Table 1: benchmark suite and max execution length ===\n";
  printf "%-18s %-52s %10s\n" "Benchmark" "Description" "Max cycles";
  List.iter
    (fun (b : B.t) ->
      let worst =
        List.fold_left
          (fun acc seed ->
            let o = Runner.run_iss ~core b ~seed in
            max acc o.Runner.cycles)
          0 [ 1; 2; 3; 4; 5 ]
      in
      printf "%-18s %-52s %10d\n" b.B.name b.B.description worst)
    B.table1;
  printf
    "(gate-level executions take one additional reset cycle; inputs are \
     scaled down vs. the paper — see DESIGN.md)\n"

(* ------------------------------------------------------------------ *)
(* Figure 2: profiling underestimates and varies with inputs           *)

let run_fig2 () =
  printf "=== Figure 2: unused gates (%%) under input profiling ===\n";
  printf "%-18s %8s %8s %12s\n" "Benchmark" "min" "max" "all-inputs";
  List.iter
    (fun (b : B.t) ->
      let p = Profiling.profile ~core ~netlist:(stock ()) ~seeds:profile_seeds b in
      let mn, mx, inter = Profiling.untoggled_fraction_range (stock ()) p in
      printf "%-18s %8.1f %8.1f %12.1f\n" b.B.name (pct mn) (pct mx) (pct inter))
    B.table1

(* ------------------------------------------------------------------ *)
(* Figures 3/4: unique vs common untoggled gates                        *)

let diff_table name_a name_b (a : B.t) (b : B.t) ~same_inputs =
  let seeds_a = profile_seeds in
  let seeds_b = if same_inputs then profile_seeds else profile_seeds in
  let pa = Profiling.profile ~core ~netlist:(stock ()) ~seeds:seeds_a a in
  let pb = Profiling.profile ~core ~netlist:(stock ()) ~seeds:seeds_b b in
  let d =
    Usage.compare_unused (stock ()) pa.Profiling.union_toggled
      pb.Profiling.union_toggled
  in
  printf "common untoggled: %d gates\n" d.Usage.common_untoggled;
  printf "untoggled only by %s: %d gates\n" name_a d.Usage.unique_a;
  printf "untoggled only by %s: %d gates\n" name_b d.Usage.unique_b;
  printf "%-16s %14s %14s\n" "module" ("uniq " ^ name_a) ("uniq " ^ name_b);
  let all_mods =
    List.sort_uniq String.compare
      (List.map fst d.Usage.per_module_unique_a
      @ List.map fst d.Usage.per_module_unique_b)
  in
  List.iter
    (fun m ->
      let get l = Option.value ~default:0 (List.assoc_opt m l) in
      printf "%-16s %14d %14d\n" m
        (get d.Usage.per_module_unique_a)
        (get d.Usage.per_module_unique_b))
    all_mods

let run_fig3 () =
  printf "=== Figure 3: FFT vs binSearch untoggled-gate comparison ===\n";
  diff_table "FFT" "binSearch" (B.find "FFT") (B.find "binSearch")
    ~same_inputs:false

let run_fig4 () =
  printf "=== Figure 4: intFilt vs scrambled-intFilt (same inputs) ===\n";
  diff_table "intFilt" "scrambled" (B.find "intFilt")
    (B.find "scrambled-intFilt") ~same_inputs:true

(* ------------------------------------------------------------------ *)
(* Figure 10: toggleable fraction with per-module breakdown             *)

let run_fig10 () =
  printf "=== Figure 10: fraction of gates toggleable (symbolic analysis) ===\n";
  let mods = Netlist.modules (stock ()) in
  printf "%-18s %8s" "Benchmark" "usable%%";
  List.iter (fun m -> printf " %10s" (if m = "" then "(glue)" else m)) mods;
  printf "\n";
  (* the paper's first bar: each module's share of the baseline *)
  let all_toggled = Array.make (Netlist.gate_count (stock ())) true in
  let base_rows = Usage.per_module (stock ()) all_toggled in
  printf "%-18s %8s" "(baseline)" "-";
  List.iter
    (fun m ->
      match List.find_opt (fun r -> r.Usage.module_name = m) base_rows with
      | Some r -> printf " %10d" r.Usage.total
      | None -> printf " %10s" "-")
    mods;
  printf "\n";
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let rows =
        Usage.per_module (stock ()) c.report.Activity.possibly_toggled
      in
      printf "%-18s %8.1f" b.B.name
        (pct (Usage.usable_fraction (stock ()) c.report.Activity.possibly_toggled));
      List.iter
        (fun m ->
          match List.find_opt (fun r -> r.Usage.module_name = m) rows with
          | Some r ->
            printf " %6d/%-4d" r.Usage.active r.Usage.total
          | None -> printf " %10s" "-")
        mods;
      printf "\n")
    B.table1

(* ------------------------------------------------------------------ *)
(* Figure 11: savings vs the baseline processor                         *)

let run_fig11 () =
  printf "=== Figure 11: gate / area / power savings vs baseline ===\n";
  printf "%-18s %8s %8s %8s\n" "Benchmark" "gates%%" "area%%" "power%%";
  let g_acc = ref [] and a_acc = ref [] and p_acc = ref [] in
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let g =
        saving
          (float_of_int c.stats.Cut.bespoke_gates)
          (float_of_int c.stats.Cut.original_gates)
      in
      let a = saving c.stats.Cut.bespoke_area c.stats.Cut.original_area in
      let p =
        saving (bespoke_power c).Report.total_nw (baseline_power c).Report.total_nw
      in
      g_acc := g :: !g_acc;
      a_acc := a :: !a_acc;
      p_acc := p :: !p_acc;
      printf "%-18s %8.1f %8.1f %8.1f\n" b.B.name g a p)
    B.table1;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  printf "%-18s %8.1f %8.1f %8.1f   (paper averages: 62%% area, 50%% power)\n"
    "(average)" (avg !g_acc) (avg !a_acc) (avg !p_acc)

(* ------------------------------------------------------------------ *)
(* Figure 12: vs coarse-grained module-level bespoke                    *)

let run_fig12 () =
  printf "=== Figure 12: savings vs module-level (Xtensa-like) pruning ===\n";
  printf "%-18s %18s %8s %8s %8s\n" "Benchmark" "removed modules" "gates%%"
    "area%%" "power%%";
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let coarse, removed =
        Module_prune.prune (stock ())
          ~possibly_toggled:c.report.Activity.possibly_toggled
          ~constants:c.report.Activity.constant_values
      in
      let coarse_profile = Profiling.profile ~core ~netlist:coarse ~seeds:profile_seeds b in
      let p_coarse =
        Report.power ~freq_hz ~toggles:coarse_profile.Profiling.total_toggles
          ~cycles:coarse_profile.Profiling.total_cycles coarse
      in
      let p_fine = bespoke_power c in
      printf "%-18s %18s %8.1f %8.1f %8.1f\n" b.B.name
        (String.concat "," removed)
        (saving
           (float_of_int (Netlist.num_gates c.bespoke))
           (float_of_int (Netlist.num_gates coarse)))
        (saving (Report.area_um2 c.bespoke) (Report.area_um2 coarse))
        (saving p_fine.Report.total_nw p_coarse.Report.total_nw))
    B.table1

(* ------------------------------------------------------------------ *)
(* Table 2: exploiting exposed timing slack                             *)

let run_table2 () =
  printf "=== Table 2: timing slack, Vmin, power savings from slack ===\n";
  printf "%-18s %8s %6s %10s %10s %8s\n" "Benchmark" "slack%%" "Vmin"
    "addl-sav%%" "total-sav%%" "fmax+%%";
  let period = clock_period_ps () in
  let fsum = ref 0.0 in
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let sta = Sta.analyze c.bespoke in
      let slack = Sta.slack_fraction ~baseline_ps:period sta in
      let vmin =
        Voltage.vmin ~critical_path_ps:sta.Sta.critical_path_ps
          ~period_ps:period
      in
      let base = (baseline_power c).Report.total_nw in
      let p_nom = (bespoke_power c).Report.total_nw in
      let p_min = (bespoke_power ~vdd:vmin c).Report.total_nw in
      (* the alternative use of slack: clock the design faster at
         nominal voltage (paper footnote 6: 13% on average) *)
      let fscale =
        Voltage.max_frequency_scale
          ~critical_path_ps:sta.Sta.critical_path_ps ~period_ps:period
      in
      fsum := !fsum +. (fscale -. 1.0);
      printf "%-18s %8.1f %6.2f %10.1f %10.1f %8.1f\n" b.B.name (pct slack)
        vmin
        (pct ((p_nom -. p_min) /. base))
        (saving p_min base)
        (pct (fscale -. 1.0)))
    B.table1;
  printf
    "(average frequency headroom at nominal voltage: %.1f%%; paper: 13%%)\n"
    (pct (!fsum /. float_of_int (List.length B.table1)))

(* ------------------------------------------------------------------ *)
(* Table 3: verification runtime and coverage                           *)

let run_table3 () =
  printf "=== Table 3: verification effort and coverage ===\n";
  printf "%-18s %8s %8s %6s %6s %7s %7s %7s %6s\n" "Benchmark" "X-sim(s)"
    "inp-sim(s)" "paths" "inputs" "line%%" "br%%" "brdir%%" "gate%%";
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let cov = Coverage.explore ~core b in
      let _, input_time =
        time (fun () -> ignore (Runner.run_gate ~core ~netlist:c.bespoke b ~seed:1))
      in
      (* gate coverage of the bespoke design under the kept inputs *)
      let p =
        Profiling.profile ~core ~netlist:c.bespoke ~seeds:cov.Coverage.kept_seeds b
      in
      let covered = Usage.usable_fraction c.bespoke p.Profiling.union_toggled in
      printf "%-18s %8.2f %8.2f %6d %6d %7.0f %7.0f %7.0f %6.0f\n" b.B.name
        c.analysis_seconds
        (input_time *. float_of_int (List.length cov.Coverage.kept_seeds))
        c.report.Activity.paths
        (List.length cov.Coverage.kept_seeds)
        cov.Coverage.line_pct cov.Coverage.branch_pct cov.Coverage.branch_dir_pct
        (pct covered))
    B.table1

(* ------------------------------------------------------------------ *)
(* Figure 13: multi-program bespoke designs                             *)

let run_fig13 () =
  printf "=== Figure 13: N-program bespoke designs (ranges over all C(15,N)) ===\n";
  let benches = Array.of_list B.table1 in
  let n = Array.length benches in
  let ctxs = Array.map ctx_of benches in
  (* only real gates count *)
  let real =
    Array.mapi
      (fun id (g : Gate.t) ->
        ignore id;
        match g.Gate.op with Gate.Input | Gate.Const _ -> false | _ -> true)
      (stock ()).Netlist.gates
  in
  let real_set = Multi.bitset_of real in
  let sets =
    Array.map
      (fun c ->
        let s = Multi.bitset_of c.report.Activity.possibly_toggled in
        Array.mapi (fun i w -> w land real_set.(i)) s)
      ctxs
  in
  let total_real = Multi.popcount real_set in
  let (best, worst), sweep_seconds = time (fun () -> Multi.sweep sets) in
  printf "sweep: %d subsets in %.3f s (%d domain(s))\n"
    ((1 lsl n) - 1) sweep_seconds (Pool.default_jobs ());
  printf
    "%3s %14s %14s %14s %14s %14s %14s\n" "N" "min-gates" "max-gates"
    "min-area" "max-area" "min-power" "max-power";
  let evaluate subset =
    let members =
      List.filter_map
        (fun i -> if subset land (1 lsl i) <> 0 then Some i else None)
        (List.init n (fun i -> i))
    in
    let reports =
      List.map
        (fun i ->
          ( ctxs.(i).report.Activity.possibly_toggled,
            ctxs.(i).report.Activity.constant_values ))
        members
    in
    let design, _ = Multi.tailor_multi (stock ()) ~reports in
    (* representative activity: one run of each member on the design *)
    let toggles = Array.make (Netlist.gate_count design) 0 in
    let cycles = ref 0 in
    List.iter
      (fun i ->
        let o = Runner.run_gate ~core ~netlist:design benches.(i) ~seed:1 in
        Array.iteri (fun k t -> toggles.(k) <- toggles.(k) + t) o.Runner.toggles;
        cycles := !cycles + o.Runner.sim_cycles)
      members;
    let p = Report.power ~freq_hz ~toggles ~cycles:!cycles design in
    (Report.area_um2 design, p.Report.total_nw)
  in
  let base_area = Report.area_um2 (stock ()) in
  (* baseline power normalization: average of the 15 single-app
     baseline powers *)
  let base_power =
    let sum =
      Array.fold_left
        (fun acc c -> acc +. (baseline_power c).Report.total_nw)
        0.0 ctxs
    in
    sum /. float_of_int n
  in
  for k = 1 to n do
    let bc, bs = best.(k) and wc, ws = worst.(k) in
    let min_area, min_pow = evaluate bs in
    let max_area, max_pow = evaluate ws in
    printf "%3d %14.3f %14.3f %14.3f %14.3f %14.3f %14.3f\n" k
      (float_of_int bc /. float_of_int total_real)
      (float_of_int wc /. float_of_int total_real)
      (min_area /. base_area) (max_area /. base_area) (min_pow /. base_power)
      (max_pow /. base_power)
  done;
  printf "(values normalized to the baseline design)\n"

(* ------------------------------------------------------------------ *)
(* Tables 4/5 and Figure 14: in-field updates via mutants               *)

let mutation_benchmarks =
  [ "binSearch"; "inSort"; "rle"; "tea8"; "Viterbi"; "autocorr" ]

let mutant_reports_cache :
    (string, (Mutation.mutant * bool array option) list) Hashtbl.t =
  Hashtbl.create 8

let mutant_reports name =
  match Hashtbl.find_opt mutant_reports_cache name with
  | Some r -> r
  | None ->
    let b = B.find name in
    let ms = Mutation.mutants b in
    ignore (stock ());
    let r =
      Pool.map
        (fun m ->
          let mb = Mutation.to_benchmark b m in
          match Runner.analyze ~core mb with
          | rep, _ -> (m, Some rep.Activity.possibly_toggled)
          | exception Activity.Analysis_error _ -> (m, None))
        ms
    in
    Hashtbl.replace mutant_reports_cache name r;
    r

let run_table4 () =
  printf "=== Table 4: mutants generated per type ===\n";
  printf "%-18s %8s %8s %8s %8s\n" "Benchmark" "TypeI" "TypeII" "TypeIII" "Total";
  List.iter
    (fun name ->
      let ms = Mutation.mutants (B.find name) in
      let by = Mutation.count_by_type ms in
      let get t = List.assoc t by in
      printf "%-18s %8d %8d %8d %8d\n" name (get Mutation.Conditional)
        (get Mutation.Computation)
        (get Mutation.Loop_conditional)
        (List.length ms))
    mutation_benchmarks

let run_table5 () =
  printf "=== Table 5: %% of mutants supported by the base bespoke design ===\n";
  printf "%-18s %8s %8s %8s %8s %10s\n" "Benchmark" "TypeI%%" "TypeII%%"
    "TypeIII%%" "Total%%" "analyzed";
  List.iter
    (fun name ->
      let c = ctx_of (B.find name) in
      let reports = mutant_reports name in
      let supported_of ty =
        let of_ty =
          List.filter
            (fun ((m : Mutation.mutant), r) -> m.Mutation.mtype = ty && r <> None)
            reports
        in
        if of_ty = [] then None
        else
          let sup =
            List.length
              (List.filter
                 (fun (_, r) ->
                   Multi.supported
                     ~design_toggled:c.report.Activity.possibly_toggled
                     ~app_toggled:(Option.get r))
                 of_ty)
          in
          Some (100.0 *. float_of_int sup /. float_of_int (List.length of_ty))
      in
      let str = function None -> "-" | Some v -> Printf.sprintf "%.0f" v in
      let analyzed = List.length (List.filter (fun (_, r) -> r <> None) reports) in
      let all_ty =
        let ok =
          List.filter
            (fun (_, r) ->
              match r with
              | Some t ->
                Multi.supported
                  ~design_toggled:c.report.Activity.possibly_toggled
                  ~app_toggled:t
              | None -> false)
            reports
        in
        if analyzed = 0 then 0.0
        else 100.0 *. float_of_int (List.length ok) /. float_of_int analyzed
      in
      printf "%-18s %8s %8s %8s %8.0f %10d\n" name
        (str (supported_of Mutation.Conditional))
        (str (supported_of Mutation.Computation))
        (str (supported_of Mutation.Loop_conditional))
        all_ty analyzed)
    mutation_benchmarks

let run_fig14 () =
  printf "=== Figure 14: designs supporting all mutants (normalized) ===\n";
  printf "%-18s %10s %10s %10s\n" "Benchmark" "gates" "area" "power";
  List.iter
    (fun name ->
      let b = B.find name in
      let c = ctx_of b in
      let reports =
        (c.report.Activity.possibly_toggled, c.report.Activity.constant_values)
        :: List.filter_map
             (fun (_, r) ->
               Option.map
                 (fun t -> (t, c.report.Activity.constant_values))
                 r)
             (mutant_reports name)
      in
      let design, stats = Multi.tailor_multi (stock ()) ~reports in
      let p = Profiling.profile ~core ~netlist:design ~seeds:[ 1; 2; 3 ] b in
      let pw =
        Report.power ~freq_hz ~toggles:p.Profiling.total_toggles
          ~cycles:p.Profiling.total_cycles design
      in
      let base = baseline_power c in
      printf "%-18s %10.3f %10.3f %10.3f\n" name
        (float_of_int stats.Cut.bespoke_gates
        /. float_of_int stats.Cut.original_gates)
        (stats.Cut.bespoke_area /. stats.Cut.original_area)
        (pw.Report.total_nw /. base.Report.total_nw))
    mutation_benchmarks

(* ------------------------------------------------------------------ *)
(* subneg: Turing-complete update support                               *)

let run_subneg () =
  printf "=== Section 5.3: subneg-enhanced bespoke processors ===\n";
  let sub_report, _ = Runner.analyze ~core Subneg.characterization in
  printf "subneg interpreter alone: %.1f%% of gates usable\n"
    (pct (Usage.usable_fraction (stock ()) sub_report.Activity.possibly_toggled));
  printf "%-18s %12s %12s %12s %12s\n" "Benchmark" "area-ovh%%" "power-ovh%%"
    "area-sav%%" "power-sav%%";
  let aovh = ref [] and povh = ref [] and asav = ref [] and psav = ref [] in
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let design, stats =
        Multi.tailor_multi (stock ())
          ~reports:
            [
              (c.report.Activity.possibly_toggled, c.report.Activity.constant_values);
              (sub_report.Activity.possibly_toggled, sub_report.Activity.constant_values);
            ]
      in
      let p = Profiling.profile ~core ~netlist:design ~seeds:[ 1; 2; 3 ] b in
      let pw =
        Report.power ~freq_hz ~toggles:p.Profiling.total_toggles
          ~cycles:p.Profiling.total_cycles design
      in
      let base = (baseline_power c).Report.total_nw in
      let plain_area = c.stats.Cut.bespoke_area in
      let plain_pow = (bespoke_power c).Report.total_nw in
      let a_o = pct ((stats.Cut.bespoke_area /. plain_area) -. 1.0) in
      let p_o = pct ((pw.Report.total_nw /. plain_pow) -. 1.0) in
      let a_s = saving stats.Cut.bespoke_area c.stats.Cut.original_area in
      let p_s = saving pw.Report.total_nw base in
      aovh := a_o :: !aovh;
      povh := p_o :: !povh;
      asav := a_s :: !asav;
      psav := p_s :: !psav;
      printf "%-18s %12.1f %12.1f %12.1f %12.1f\n" b.B.name a_o p_o a_s p_s)
    B.table1;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  printf
    "(average overhead: %.1f%% area, %.1f%% power; average savings: %.1f%% \
     area, %.1f%% power; paper: 8%%/10%% overhead, 56%%/43%% savings)\n"
    (avg !aovh) (avg !povh) (avg !asav) (avg !psav)

(* ------------------------------------------------------------------ *)
(* Section 5.4: system code (RTOS)                                      *)

let run_rtos () =
  printf "=== Section 5.4: system code (RTOS kernel) ===\n";
  let r, net = Runner.analyze ~core Rtos.kernel in
  let kernel_set = r.Activity.possibly_toggled in
  printf "RTOS kernel alone: %.1f%% of gates unused (paper FreeRTOS: 57%%)\n"
    (pct (1.0 -. Usage.usable_fraction net kernel_set));
  printf "%-18s %16s\n" "Benchmark+RTOS" "unused gates %%";
  let union_all = ref kernel_set in
  let worst = ref 1.0 in
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let u = Multi.union_toggled [ kernel_set; c.report.Activity.possibly_toggled ] in
      union_all := Multi.union_toggled [ !union_all; u ];
      let unused = 1.0 -. Usage.usable_fraction net u in
      if unused < !worst then worst := unused;
      printf "%-18s %16.1f\n" b.B.name (pct unused))
    B.table1;
  printf "worst case: %.1f%% unused (paper: 37%%)\n" (pct !worst);
  printf "RTOS + all 15 benchmarks: %.1f%% unused (paper: 27%%)\n"
    (pct (1.0 -. Usage.usable_fraction net !union_all))

(* ------------------------------------------------------------------ *)
(* Figure 15: oracular module-level power gating                        *)

let run_fig15 () =
  printf "=== Figure 15: oracular zero-overhead module power gating ===\n";
  printf "%-18s %14s %24s\n" "Benchmark" "PG savings%%" "bespoke savings%% (cf)";
  List.iter
    (fun (b : B.t) ->
      let c = ctx_of b in
      let pg = Power_gating.evaluate ~core ~netlist:(stock ()) b in
      let bespoke_sav =
        saving (bespoke_power c).Report.total_nw (baseline_power c).Report.total_nw
      in
      printf "%-18s %14.1f %24.1f\n" b.B.name
        (pct pg.Power_gating.power_saving_fraction)
        bespoke_sav)
    B.table1

(* ------------------------------------------------------------------ *)
(* Table 6: static survey table                                         *)

let run_table6 () =
  printf "=== Table 6: microarchitectural features in embedded processors ===\n";
  printf "%-28s %16s %6s\n" "Processor" "Branch predictor" "Cache";
  List.iter
    (fun (p, bp, c) -> printf "%-28s %16s %6s\n" p bp c)
    [
      ("ARM Cortex-M0", "no", "no");
      ("ARM Cortex-M3", "yes", "no");
      ("Atmel ATxmega128A4", "no", "no");
      ("Freescale/NXP MC13224v", "no", "no");
      ("Intel Quark-D1000", "yes", "yes");
      ("Jennic/NXP JN5169", "no", "no");
      ("SiLab Si2012", "no", "no");
      ("TI MSP430", "no", "no");
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the hot primitives                       *)

let run_bechamel () =
  printf "=== microbenchmarks (Bechamel) ===\n";
  let open Bechamel in
  let open Toolkit in
  let img =
    Bespoke_isa.Asm.assemble
      "start: mov #0x0280, sp\nloop: dec r4\n jnz loop\n halt\n"
  in
  let sys =
    System.create ~netlist:(stock ()) ~core (Bespoke_cpu.Msp430.coreimage img)
  in
  System.reset sys;
  System.set_irq sys Bit.Zero;
  let t_cycle =
    Test.make ~name:"gate-level cpu cycle"
      (Staged.stage (fun () -> System.step_cycle sys))
  in
  let t_tern =
    (* one scalar Nand instruction on its rail formulas: flip an input
       and settle *)
    let bld = Netlist.Builder.create () in
    let input name =
      let id = Netlist.Builder.add_op bld Gate.Input [||] in
      Netlist.Builder.set_input_port bld name [| id |];
      id
    in
    let a = input "a" and b = input "b" in
    ignore (Netlist.Builder.add_op bld Gate.Nand [| a; b |]);
    let c = Compile.create (Netlist.Builder.finish bld) in
    Compile.reset c;
    Compile.set_gate c b Bit.X;
    let v = ref false in
    Test.make ~name:"ternary nand settle (rails)"
      (Staged.stage (fun () ->
           v := not !v;
           Compile.set_gate c a (Bit.of_bool !v);
           Compile.eval c))
  in
  let t_asm =
    Test.make ~name:"assemble small program"
      (Staged.stage (fun () ->
           ignore
             (Bespoke_isa.Asm.assemble
                "start: mov #1, r4\n add r4, r5\n halt\n")))
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw)
        instances
    in
    let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
    Hashtbl.iter
      (fun _clock tbl ->
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> printf "%-28s %12.1f ns/run\n" name est
            | _ -> printf "%-28s (no estimate)\n" name)
          tbl)
      results
  in
  List.iter benchmark [ t_tern; t_asm; t_cycle ]

(* ------------------------------------------------------------------ *)
(* Simulator throughput: full-eval vs 64-way packed vs compiled
   word-level                                                          *)

(* Every cycles/sec figure is the median of [timing_reps] repetitions
   of the whole measurement (recorded in the artifact), so a transient
   load spike during one trial cannot flip a comparison between two
   engines measured at different moments. *)
let timing_reps = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let median_of_reps f = median (List.init timing_reps (fun _ -> f ()))

type sim_row = {
  sr_core : string;  (** {!Bespoke_cores.Cores} registry name *)
  sr_name : string;
  sr_sim_cycles : int;  (** total simulated cycles (all profiling seeds) *)
  full_cps : float;
  packed_cps : float;
  compiled_cps : float;
  t_analysis : float;
  t_cut : float;
  t_profile : float;
}

let bench_sim_row ~core (b : B.t) : sim_row =
  let net = Runner.shared_netlist core in
  let sim_cycles = ref 0 in
  let run_engine engine =
    median_of_reps (fun () ->
        let cyc = ref 0 in
        let (), dt =
          time (fun () ->
              List.iter
                (fun seed ->
                  let o = Runner.run_gate ~core ~engine ~netlist:net b ~seed in
                  cyc := !cyc + o.Runner.sim_cycles)
                profile_seeds)
        in
        sim_cycles := !cyc;
        float_of_int !cyc /. dt)
  in
  let full_cps = run_engine Sweep.create in
  let compiled_cps = run_engine Engine.create in
  let packed_cps =
    median_of_reps (fun () ->
        let cyc = ref 0 in
        let (), dt =
          time (fun () ->
              List.iter
                (fun (_, (o : Runner.gate_outcome)) ->
                  cyc := !cyc + o.Runner.sim_cycles)
                (Runner.run_gate_packed ~core ~netlist:net b ~seeds:profile_seeds))
        in
        float_of_int !cyc /. dt)
  in
  let sim_cycles = !sim_cycles in
  let (report, anet), t_analysis = time (fun () -> Runner.analyze ~core b) in
  let _, t_cut =
    time (fun () ->
        ignore
          (Cut.tailor anet ~possibly_toggled:report.Activity.possibly_toggled
             ~constants:report.Activity.constant_values))
  in
  let _, t_profile =
    time (fun () -> ignore (Profiling.profile ~core ~netlist:net ~seeds:profile_seeds b))
  in
  {
    sr_core = core.Bespoke_coreapi.Coredef.name;
    sr_name = b.B.name;
    sr_sim_cycles = sim_cycles;
    full_cps;
    packed_cps;
    compiled_cps;
    t_analysis;
    t_cut;
    t_profile;
  }

(* The obs, sampler and guard rows share one paired-trial discipline:
   each trial is [trial_runs] back-to-back runs of mult, measured in
   cycles/sec; after one warm-up trial (paging in the netlist and code
   paths), [obs_reps] alternating trials per side, paired so both
   sides see the same load environment, then the median of each.  A
   single transient spike (or lull) cannot produce a nonsense
   comparison such as a negative enabled slowdown. *)
let obs_reps = 5
let trial_runs = 40

let trial_cps run_once () =
  let cyc = ref 0 in
  let (), dt =
    time (fun () ->
        for _ = 1 to trial_runs do
          cyc := !cyc + (run_once ()).Runner.sim_cycles
        done)
  in
  float_of_int !cyc /. dt

let paired_trials base variant =
  ignore (base ());
  let xs = ref [] and ys = ref [] in
  for _ = 1 to obs_reps do
    xs := base () :: !xs;
    ys := variant () :: !ys
  done;
  (median !xs, median !ys)

(* Observability overhead: tracing disabled vs enabled, on the
   compiled engine (the engine of every scalar run).  The disabled
   path is the default for every other row in this table, so any
   regression there shows up directly in the cps columns; the enabled
   slowdown is only paid when --trace/--metrics-out/BESPOKE_TRACE is
   in effect. *)
let measure_obs_overhead () =
  let b = B.find "mult" in
  let net = stock () in
  let run = trial_cps (fun () -> Runner.run_gate ~core ~netlist:net b ~seed:1) in
  paired_trials run (fun () ->
      Obs.enable ();
      let cps = run () in
      Obs.disable ();
      Obs.Trace.clear ();
      Obs.Metrics.reset ();
      cps)

(* Marginal cost of the background metrics sampler on top of enabled
   telemetry: enabled-only vs enabled-with-a-live-Sampler (ticking
   into a scratch file at the interval the acceptance flow uses). *)
let sampler_interval_ms = 100

let measure_sampler_overhead () =
  let b = B.find "mult" in
  let net = stock () in
  let run = trial_cps (fun () -> Runner.run_gate ~core ~netlist:net b ~seed:1) in
  let path = Filename.temp_file "bespoke_sampler_bench" ".jsonl" in
  Obs.enable ();
  let medians =
    paired_trials run (fun () ->
        Obs.Sampler.start ~path ~interval_ms:sampler_interval_ms ();
        let cps = run () in
        Obs.Sampler.stop ();
        cps)
  in
  Obs.disable ();
  Obs.Trace.clear ();
  Obs.Metrics.reset ();
  (try Sys.remove path with Sys_error _ -> ());
  medians

(* Marginal cost of the zero-hardware guard: plain bespoke runs vs runs
   with the cut-assumption shadow watcher attached (`run --guard`'s hot
   path).  Each watched run builds its packed check program once and
   evaluates it as word operations at every committed cycle, so its
   cost scales with the monitor count — the artifact records both. *)
let guard_plan_of (b : B.t) =
  let t = Runner.tailor_cached ~core b in
  (Guard.plan_of_tailored t, t.Runner.bespoke)

let measure_guard_overhead () =
  let b = B.find "mult" in
  let plan, bespoke = guard_plan_of b in
  let plain, watched =
    paired_trials
      (trial_cps (fun () -> Runner.run_gate ~core ~netlist:bespoke b ~seed:1))
      (trial_cps (fun () ->
           (* violations are sticky per watcher: a fresh one per run
              keeps every rep on the same (clean) fast path *)
           let w = Guard.watch_bespoke plan in
           Runner.run_gate ~core ~attach:(Guard.attach w) ~netlist:bespoke b
             ~seed:1))
  in
  (List.length plan.Guard.p_monitors, plain, watched)

(* One-time program-compilation cost of the compiled engine for the
   stock core, and the per-instance cost of a design-cache hit
   (dominated by the netlist hash).  Reported separately from the
   cycles/sec columns, which all run with a warm cache. *)
let measure_compile_cost () =
  let net = stock () in
  Compile.clear_cache ();
  let _, cold = time (fun () -> ignore (Compile.create net)) in
  let warm =
    median_of_reps (fun () ->
        let _, dt = time (fun () -> ignore (Compile.create net)) in
        dt)
  in
  (cold, warm)

(* Campaign throughput: the analyze+tailor+report+run flow over all
   15 benchmarks (60 jobs), three ways.

   - "one-shot" is the pre-campaign world: one fresh CLI process per
     job.  Simulated in-process by clearing every flow cache (and the
     compiled-engine design cache) before each job and charging each
     job a netlist build, which a fresh process always pays.
   - "cold" campaigns start with cleared caches and pay one netlist
     build, but the 60 jobs share the process — and the flow cache, so
     the four kinds share one analysis (and one cut) per benchmark.
   - "warm" reruns the same campaign without clearing: every job is a
     content-addressed cache hit.

   On a multi-core box the jobs=4 campaign additionally overlaps four
   jobs; on one core jobs=4 clamps to one domain
   (Pool.clamp_jobs) and the win is cache sharing alone. *)
let measure_campaign () =
  let kinds =
    [ Campaign.Analyze; Campaign.Tailor; Campaign.Report; Campaign.Run ]
  in
  let all_jobs =
    List.concat_map
      (fun (b : B.t) ->
        List.map (fun kind -> Campaign.job ~kind (Campaign.Inline b)) kinds)
      B.table1
  in
  let clear_caches () =
    Flowcache.clear_all ();
    Compile.clear_cache ()
  in
  let t_build =
    median_of_reps (fun () ->
        snd (time (fun () -> ignore (Bespoke_cpu.Cpu.build ()))))
  in
  let assert_ok tag (s : Campaign.summary) =
    if s.Campaign.failed > 0 then
      failwith
        (Printf.sprintf "bench campaign (%s): %d job(s) failed" tag
           s.Campaign.failed)
  in
  let oneshot_s =
    List.fold_left
      (fun acc j ->
        clear_caches ();
        let (_, s), dt = time (fun () -> Campaign.run ~jobs:1 [ j ]) in
        assert_ok "oneshot" s;
        acc +. dt +. t_build)
      0.0 all_jobs
  in
  let run_one tag n ~cold =
    if cold then clear_caches ();
    let (_, s), dt = time (fun () -> Campaign.run ~jobs:n all_jobs) in
    assert_ok tag s;
    if cold then dt +. t_build else dt
  in
  let cold1_s = run_one "cold1" 1 ~cold:true in
  let cold4_s = run_one "cold4" 4 ~cold:true in
  let warm4_s = run_one "warm4" 4 ~cold:false in
  (List.length all_jobs, t_build, oneshot_s, cold1_s, cold4_s, warm4_s)

(* Set by `--history` on the command line: after writing BENCH_sim.json,
   also append the same payload as one bespoke-bench/v1 line to
   BENCH_history.jsonl so `stats --compare` has a trail to diff.      *)
let history_requested = ref false

let append_bench_history bench =
  let now = Unix.time () in
  let tm = Unix.gmtime now in
  let label =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl"
  in
  output_string oc
    (J.obj
       [
         ("schema", J.str Bespoke_obs.Stats.history_schema);
         ("unix_time", J.num now);
         ("label", J.str label);
         ("bench", bench);
       ]);
  output_char oc '\n';
  close_out oc;
  printf "appended %s entry to BENCH_history.jsonl\n" label

let run_bench_sim () =
  printf "=== simulator throughput: cycles/sec over the profiling workload ===\n";
  printf "%-8s %-12s %9s %9s %9s %9s %8s | %8s %6s %8s\n" "Core"
    "Benchmark" "cycles" "full" "packed" "compiled" "speedup"
    "analy(s)" "cut(s)" "prof(s)";
  (* per-core rows: the MSP430 suite the paper evaluates, plus every
     other registered core's benchmarks — same engines, same netlist
     memoization, so the artifact records cross-ISA throughput too *)
  let per_core =
    (core, B.table1)
    :: List.filter_map
         (fun (e : Bespoke_cores.Cores.entry) ->
           let c = e.Bespoke_cores.Cores.core in
           if c.Bespoke_coreapi.Coredef.name = core.Bespoke_coreapi.Coredef.name
           then None
           else Some (c, e.Bespoke_cores.Cores.benchmarks))
         Bespoke_cores.Cores.all
  in
  let rows =
    List.concat_map
      (fun (c, benches) ->
        List.map
          (fun b ->
            let r = bench_sim_row ~core:c b in
            printf
              "%-8s %-12s %9d %9.0f %9.0f %9.0f %7.1fx | %8.2f %6.2f %8.2f\n"
              r.sr_core r.sr_name r.sr_sim_cycles r.full_cps r.packed_cps
              r.compiled_cps
              (r.compiled_cps /. r.full_cps)
              r.t_analysis r.t_cut r.t_profile;
            r)
          benches)
      per_core
  in
  List.iter
    (fun (c, _) ->
      let cname = c.Bespoke_coreapi.Coredef.name in
      let crows = List.filter (fun r -> r.sr_core = cname) rows in
      let geomean f =
        exp
          (List.fold_left (fun acc r -> acc +. log (f r)) 0.0 crows
          /. float_of_int (List.length crows))
      in
      printf
        "geomean cycles/sec (%s): full %.0f, packed %.0f, compiled %.0f\n"
        cname
        (geomean (fun r -> r.full_cps))
        (geomean (fun r -> r.packed_cps))
        (geomean (fun r -> r.compiled_cps)))
    per_core;
  let compile_cold_s, compile_warm_s = measure_compile_cost () in
  printf
    "compiled engine: program build %.3f s (cache miss), cached create %.4f s \
     (%d hits / %d misses this run)\n"
    compile_cold_s compile_warm_s (Compile.cache_hits ())
    (Compile.cache_misses ());
  let obs_disabled_cps, obs_enabled_cps = measure_obs_overhead () in
  printf
    "obs overhead (mult, compiled engine): disabled %.0f cps, enabled %.0f \
     cps (%.1f%% slower when tracing)\n"
    obs_disabled_cps obs_enabled_cps
    (100.0 *. (1.0 -. (obs_enabled_cps /. obs_disabled_cps)));
  let smp_enabled_cps, smp_sampled_cps = measure_sampler_overhead () in
  printf
    "sampler overhead (mult, compiled engine, %d ms ticks): enabled %.0f cps, \
     +sampler %.0f cps (%.1f%% slower)\n"
    sampler_interval_ms smp_enabled_cps smp_sampled_cps
    (100.0 *. (1.0 -. (smp_sampled_cps /. smp_enabled_cps)));
  let guard_monitors, guard_plain_cps, guard_watched_cps =
    measure_guard_overhead ()
  in
  printf
    "guard overhead (mult, compiled engine, %d monitor(s)): plain %.0f cps, \
     +watcher %.0f cps (%.1f%% slower in shadow mode)\n"
    guard_monitors guard_plain_cps guard_watched_cps
    (100.0 *. (1.0 -. (guard_watched_cps /. guard_plain_cps)));
  let camp_jobs, camp_build_s, camp_oneshot_s, camp_cold1_s, camp_cold4_s,
      camp_warm4_s =
    measure_campaign ()
  in
  let jps t = float_of_int camp_jobs /. t in
  printf
    "campaign (%d jobs: analyze+tailor+report+run x %d benchmarks):\n\
    \  one-shot %.1f s (%.2f jobs/s), cold jobs=1 %.1f s (%.2f), cold jobs=4 \
     %.1f s (%.2f), warm jobs=4 %.3f s (%.0f)\n\
    \  speedups: cold jobs=4 vs one-shot %.2fx, warm vs cold %.1fx\n"
    camp_jobs (List.length B.table1) camp_oneshot_s (jps camp_oneshot_s)
    camp_cold1_s (jps camp_cold1_s) camp_cold4_s (jps camp_cold4_s)
    camp_warm4_s (jps camp_warm4_s)
    (camp_oneshot_s /. camp_cold4_s)
    (camp_cold4_s /. camp_warm4_s);
  let text =
    J.obj
      [
        ( "workload",
          J.str
            (Printf.sprintf "gate-level runs over %d profiling seeds"
               (List.length profile_seeds)) );
        ( "timing",
          J.obj
            [
              ("reps", J.int timing_reps);
              ("statistic", J.str "median");
              ("obs_reps", J.int obs_reps);
            ] );
        ("host", J.obj [ ("nproc", J.int (Domain.recommended_domain_count ())) ]);
        ( "compiled_engine",
          J.obj
            [
              ("compile_seconds", J.num compile_cold_s);
              ("cached_create_seconds", J.num compile_warm_s);
              ("cache_hits", J.int (Compile.cache_hits ()));
              ("cache_misses", J.int (Compile.cache_misses ()));
            ] );
        ( "obs_overhead",
          J.arr
            [
              J.obj
                [
                  ("benchmark", J.str "mult");
                  ("engine", J.str "compiled");
                  ("disabled_cps", J.num obs_disabled_cps);
                  ("enabled_cps", J.num obs_enabled_cps);
                  ( "enabled_slowdown",
                    J.num (1.0 -. (obs_enabled_cps /. obs_disabled_cps)) );
                ];
            ] );
        ( "sampler_overhead",
          J.obj
            [
              ("benchmark", J.str "mult");
              ("engine", J.str "compiled");
              ("interval_ms", J.int sampler_interval_ms);
              ("enabled_cps", J.num smp_enabled_cps);
              ("sampler_cps", J.num smp_sampled_cps);
              ( "sampler_slowdown",
                J.num (1.0 -. (smp_sampled_cps /. smp_enabled_cps)) );
            ] );
        ( "guard_overhead",
          J.obj
            [
              ("benchmark", J.str "mult");
              ("engine", J.str "compiled");
              ("monitors", J.int guard_monitors);
              ("plain_cps", J.num guard_plain_cps);
              ("watched_cps", J.num guard_watched_cps);
              ( "watch_slowdown",
                J.num (1.0 -. (guard_watched_cps /. guard_plain_cps)) );
            ] );
        ( "campaign",
          J.obj
            [
              ("jobs_total", J.int camp_jobs);
              ("benchmarks", J.int (List.length B.table1));
              ( "kinds",
                J.arr (List.map J.str [ "analyze"; "tailor"; "report"; "run" ]) );
              ("netlist_build_seconds", J.num camp_build_s);
              ("oneshot_seconds", J.num camp_oneshot_s);
              ("cold_jobs1_seconds", J.num camp_cold1_s);
              ("cold_jobs4_seconds", J.num camp_cold4_s);
              ("warm_jobs4_seconds", J.num camp_warm4_s);
              ( "jobs_per_sec",
                J.obj
                  [
                    ("oneshot", J.num (jps camp_oneshot_s));
                    ("cold_jobs1", J.num (jps camp_cold1_s));
                    ("cold_jobs4", J.num (jps camp_cold4_s));
                    ("warm_jobs4", J.num (jps camp_warm4_s));
                  ] );
              ( "speedup_cold_jobs4_vs_oneshot",
                J.num (camp_oneshot_s /. camp_cold4_s) );
              ("speedup_warm_vs_cold", J.num (camp_cold4_s /. camp_warm4_s));
            ] );
        ( "benchmarks",
          J.arr
            (List.map
               (fun r ->
                 J.obj
                   [
                     ("name", J.str r.sr_name);
                     ("core", J.str r.sr_core);
                     ("sim_cycles", J.int r.sr_sim_cycles);
                     ( "cycles_per_sec",
                       J.obj
                         [
                           ("full", J.num r.full_cps);
                           ("packed", J.num r.packed_cps);
                           ("compiled", J.num r.compiled_cps);
                         ] );
                     ( "speedup_vs_full",
                       J.obj
                         [
                           ("packed", J.num (r.packed_cps /. r.full_cps));
                           ("compiled", J.num (r.compiled_cps /. r.full_cps));
                         ] );
                     ( "phase_seconds",
                       J.obj
                         [
                           ("analysis", J.num r.t_analysis);
                           ("cut", J.num r.t_cut);
                           ("profile", J.num r.t_profile);
                         ] );
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_sim.json" in
  output_string oc (text ^ "\n");
  close_out oc;
  printf "wrote BENCH_sim.json\n";
  (* the artifact's own reader holds it to its acceptance bars *)
  (match Bespoke_obs.Stats.read ~name:"BENCH_sim.json" text with
  | Ok _ -> ()
  | Error m ->
    prerr_endline m;
    exit 1);
  if !history_requested then append_bench_history text

(* ------------------------------------------------------------------ *)
(* guard-table: hardware cost of the deployment guard per benchmark —
   the EXPERIMENTS.md "cut-assumption monitors" table.  Every area and
   leakage figure comes from the same Report instruments that measure
   the tailoring savings the guard protects.                           *)

let run_guard_table () =
  printf "=== deployment guard: per-benchmark hardware overhead ===\n";
  printf "%-12s %8s %8s %8s %7s %6s %8s %7s %8s %8s\n" "Benchmark" "assume"
    "monitor" "implied" "unmon" "cov%" "+gates" "+dffs" "area+%" "leak+%";
  let cov_acc = ref [] and area_acc = ref [] and leak_acc = ref [] in
  List.iter
    (fun (b : B.t) ->
      let plan, _ = guard_plan_of b in
      let inst = Guard.instrument plan in
      let hw = Guard.hw_stats plan inst in
      let assumptions = List.length plan.Guard.p_assumptions in
      (* monitored or statically implied: the fraction of assumptions
         the shipped hardware actually accounts for *)
      let cov =
        if assumptions = 0 then 100.0
        else
          100.0
          *. float_of_int (hw.Guard.h_monitors + hw.Guard.h_implied)
          /. float_of_int assumptions
      in
      cov_acc := cov :: !cov_acc;
      area_acc := hw.Guard.h_area_pct :: !area_acc;
      leak_acc := hw.Guard.h_leakage_pct :: !leak_acc;
      printf "%-12s %8d %8d %8d %7d %6.1f %8d %7d %8.1f %8.1f\n" b.B.name
        assumptions hw.Guard.h_monitors hw.Guard.h_implied
        hw.Guard.h_unmonitorable cov hw.Guard.h_added_gates
        hw.Guard.h_added_dffs hw.Guard.h_area_pct hw.Guard.h_leakage_pct)
    B.table1;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  printf "%-12s %8s %8s %8s %7s %6.1f %8s %7s %8.1f %8.1f   (average)\n"
    "(average)" "" "" "" "" (avg !cov_acc) "" "" (avg !area_acc)
    (avg !leak_acc);
  printf
    "(overhead is relative to the bespoke design; the shadow watcher covers \
     the same monitors at zero hardware)\n"

(* ------------------------------------------------------------------ *)
(* bench-smoke: one tiny benchmark through all three engines, asserting
   bit-identical outcomes, plus host-independent allocation and
   structure gates.  Wired into `dune runtest` via the @bench-smoke
   alias, which also runs `bespoke_cli stats` over the recorded
   BENCH_sim.json artifact.                                            *)

(* Allocation gate: an analysis state is held as words (the DFF
   chunks' rails and RAM pages shared between snapshots), so a
   snapshot copies only what changed since the previous one.  Analysing
   rv32 intAVG (many loads and stores with X addresses) and msp430 irq
   (the branchiest msp430 case) allocates a few hundred words per
   cycle; copying the whole RAM and a Bit.t per DFF into every snapshot
   costs 1k-1.5k, and per-bit ternary memory paths about 47k.
   Allocated words do not depend on host speed. *)
let max_analysis_words_per_cycle = 800.

let check_analysis_alloc () =
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Obs.disable ();
  List.iter
    (fun ((e : Bespoke_cores.Cores.entry), name) ->
      let b = Option.get (Bespoke_cores.Cores.benchmark e name) in
      let core = e.Bespoke_cores.Cores.core in
      let netlist = Runner.shared_netlist core in
      (* the first analysis also fills the compile and image memos *)
      ignore (Runner.analyze ~core ~netlist b);
      let before = allocated () in
      let report, _ = Runner.analyze ~core ~netlist b in
      let per_cycle =
        (allocated () -. before) /. float_of_int report.Activity.total_cycles
      in
      printf "bench-smoke: %s %s analysis allocates %.0f words/cycle (gate %.0f)\n"
        core.Bespoke_coreapi.Coredef.name b.B.name per_cycle
        max_analysis_words_per_cycle;
      if per_cycle > max_analysis_words_per_cycle then
        failwith "bench-smoke: analysis allocation gate exceeded")
    [ (Bespoke_cores.Cores.rv32, "intAVG"); (Bespoke_cores.Cores.msp430, "irq") ]

(* Allocation gate for the shadow watcher: a watched run of mult may
   allocate at most this many words per cycle more than the plain run,
   once the one-time build of the watcher and its packed check program
   is taken off.  The packed checks allocate nothing per cycle; a scan
   that gathers each monitor's fanin values into a fresh array
   allocates thousands of words per cycle.  Counted in minor-heap
   words, which OCaml 5 reports exactly (major-heap totals lag until
   the next collection); per-cycle garbage is small blocks, so it all
   lands there.  Host-independent. *)
let max_guard_words_per_cycle = 64.

let check_guard_alloc () =
  let b = B.find "mult" in
  let plan, bespoke = guard_plan_of b in
  Obs.disable ();
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  let run ?attach () = Runner.run_gate ~core ?attach ~netlist:bespoke b ~seed:1 in
  (* the first run also fills the compile and image memos *)
  ignore (run ());
  let o, plain = words (fun () -> run ()) in
  let eng = Engine.create bespoke in
  let (), build = words (fun () -> Guard.attach (Guard.watch_bespoke plan) eng) in
  let _, watched =
    words (fun () ->
        let w = Guard.watch_bespoke plan in
        run ~attach:(Guard.attach w) ())
  in
  let per_cycle = (watched -. plain -. build) /. float_of_int o.Runner.sim_cycles in
  printf
    "bench-smoke: guard watcher on %s allocates %.1f words/cycle beyond the \
     plain run (build %.0f words once; gate %.0f)\n"
    b.B.name per_cycle build max_guard_words_per_cycle;
  if per_cycle > max_guard_words_per_cycle then
    failwith "bench-smoke: guard watcher allocation gate exceeded"

(* Structure gate: resynthesis keeps the stock gate order, so a
   tailored design's buses stay on consecutive ids and the compiler
   still finds word runs and ripple-carry adders in it.  A tailored
   mult must compile to at least one adder and to no more instructions
   than the stock core.  Host-independent. *)
let check_bespoke_structure () =
  List.iter
    (fun (e : Bespoke_cores.Cores.entry) ->
      let core = e.Bespoke_cores.Cores.core in
      let name = core.Bespoke_coreapi.Coredef.name in
      let b = Option.get (Bespoke_cores.Cores.benchmark e "mult") in
      let { Runner.original; bespoke; _ } = Runner.tailor_cached ~core b in
      let stock = Compile.stats (Compile.create original) in
      let s = Compile.stats (Compile.create bespoke) in
      printf
        "bench-smoke: %s tailored %s compiles %d gates to %d instructions \
         with %d adder(s) (stock %d gates, %d instructions)\n"
        name b.B.name s.Compile.gates s.Compile.instructions s.Compile.adders
        stock.Compile.gates stock.Compile.instructions;
      if s.Compile.adders < 1 || s.Compile.instructions > stock.Compile.instructions
      then
        failwith
          (Printf.sprintf
             "bench-smoke: %s tailored %s lost its word structure (%d adders, \
              %d instructions vs stock %d)"
             name b.B.name s.Compile.adders s.Compile.instructions
             stock.Compile.instructions))
    Bespoke_cores.Cores.all

(* Same-work gate: instructions the compiled engine executes per
   committed cycle of a stock mult run, which a faster inner loop must
   not raise (a rewrite that woke readers whose read-mask missed would
   keep every output and do more work).  The bars are the readings of
   the pending-bitmask engine with mask-filtered wake-ups (15793
   instructions over 78 cycles on msp430, 45847 over 343 on rv32),
   rounded up.  Host-independent. *)
let max_execs_per_cycle = [ ("msp430", 202.48); ("rv32", 133.67) ]

let check_same_work () =
  List.iter
    (fun (e : Bespoke_cores.Cores.entry) ->
      let core = e.Bespoke_cores.Cores.core in
      let name = core.Bespoke_coreapi.Coredef.name in
      let b = Option.get (Bespoke_cores.Cores.benchmark e "mult") in
      let netlist = Runner.shared_netlist core in
      Obs.enable ();
      Obs.reset ();
      ignore (Runner.run_gate ~core ~netlist b ~seed:1);
      let count m = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter m)) in
      let per_cycle = count "sim.compile.instr_execs" /. count "sim.compile.cycles" in
      Obs.reset ();
      Obs.disable ();
      let bar = List.assoc name max_execs_per_cycle in
      printf "bench-smoke: %s mult executes %.2f instructions/cycle (gate %.2f)\n"
        name per_cycle bar;
      if per_cycle > bar then failwith "bench-smoke: same-work gate exceeded")
    Bespoke_cores.Cores.all

let run_bench_smoke () =
  let b = B.find "mult" in
  let net = stock () in
  let seeds = [ 1; 2; 3 ] in
  let run engine =
    List.map (fun s -> Runner.run_gate ~core ~engine ~netlist:net b ~seed:s) seeds
  in
  let full = run Sweep.create in
  let compiled = run Engine.create in
  let packed = List.map snd (Runner.run_gate_packed ~core ~netlist:net b ~seeds) in
  let check tag (a : Runner.gate_outcome) (c : Runner.gate_outcome) =
    if
      a.Runner.g_results <> c.Runner.g_results
      || a.Runner.g_cycles <> c.Runner.g_cycles
      || a.Runner.g_gpio_out <> c.Runner.g_gpio_out
      || a.Runner.sim_cycles <> c.Runner.sim_cycles
      || a.Runner.toggles <> c.Runner.toggles
    then failwith (Printf.sprintf "bench-smoke: %s engine diverges on %s" tag b.B.name)
  in
  List.iter2 (check "packed") full packed;
  List.iter2 (check "compiled") full compiled;
  printf
    "bench-smoke: full/packed/compiled bit-identical on %s (%d seeds, \
     %d cycles each)\n"
    b.B.name (List.length seeds) (List.hd full).Runner.sim_cycles;
  check_analysis_alloc ();
  check_guard_alloc ();
  check_bespoke_structure ();
  check_same_work ()

(* ------------------------------------------------------------------ *)

let sections : (string * (unit -> unit)) list =
  [
    ("table1", run_table1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig10", run_fig10);
    ("fig11", run_fig11);
    ("fig12", run_fig12);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig13", run_fig13);
    ("table4", run_table4);
    ("table5", run_table5);
    ("fig14", run_fig14);
    ("subneg", run_subneg);
    ("rtos", run_rtos);
    ("fig15", run_fig15);
    ("table6", run_table6);
    ("bechamel", run_bechamel);
    ("guard-table", run_guard_table);
    ("bench-sim", run_bench_sim);
    ("bench-smoke", run_bench_smoke);
  ]

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--history" argv then history_requested := true;
  let only =
    if List.mem "--bench-sim" argv then Some "bench-sim"
    else if List.mem "--bench-smoke" argv then Some "bench-smoke"
    else
      let rec find = function
        | "--only" :: v :: _ -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find argv
  in
  let chosen =
    match only with
    | None ->
      prewarm_ctxs ();
      (* bench-sim times engines against each other; keep it out of the
         default full run, which already exercises all three. *)
      List.filter (fun (id, _) -> id <> "bench-sim") sections
    | Some id -> (
      match List.assoc_opt id sections with
      | Some f -> [ (id, f) ]
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" id
          (String.concat ", " (List.map fst sections));
        exit 1)
  in
  List.iter
    (fun (id, f) ->
      let (), dt = time f in
      printf "--- %s completed in %.1fs ---\n\n%!" id dt)
    chosen
