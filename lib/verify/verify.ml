module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Coredef = Bespoke_coreapi.Coredef
module Lockstep = Bespoke_coreapi.Lockstep
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Pool = Bespoke_core.Pool
module Coverage = Bespoke_coverage.Coverage
module Guard = Bespoke_guard.Guard
module Obs = Bespoke_obs.Obs

(* campaign telemetry, in the flow-wide verify.* group *)
let m_campaigns = Obs.Metrics.counter "verify.campaigns"
let m_inputs = Obs.Metrics.counter "verify.inputs_checked"
let m_faults = Obs.Metrics.counter "verify.faults_injected"
let m_killed = Obs.Metrics.counter "verify.faults_killed"
let m_survived = Obs.Metrics.counter "verify.faults_survived"
let g_kill_score = Obs.Metrics.gauge "verify.kill_score_pct"

let now = Unix.gettimeofday

type input_run = {
  ir_seed : int;
  ir_time_s : float;
  ir_diverged : Lockstep.divergence_info option;
}

type symbolic = {
  sym_ok : bool;
  sym_paths : int;
  sym_time_s : float;
  sym_detail : string option;
}

type kill =
  | Killed_input of Shrink.repro
  | Killed_symbolic of string
  | Survived

type fault_result = {
  fault : Fault.t;
  kill : kill;
  fr_time_s : float;
}

(* Deployment-guard shadow check of the unfaulted design: the
   benchmark replayed on its own bespoke design with the
   cut-assumption watcher attached — it must stay silent. *)
type guard_check = {
  gc_assumptions : int;
  gc_monitors : int;
  gc_implied : int;
  gc_unmonitorable : int;
  gc_cycles : int;
  gc_violations : int;
}

type campaign = {
  benchmark : string;
  core : string;
  gates_original : int;
  gates_bespoke : int;
  symbolic : symbolic;
  inputs : input_run list;
  coverage : Coverage.stats;
  gate_pct : float;
  equivalent : bool;
  repro : Shrink.repro option;
  faults : fault_result list;
  guard : guard_check;
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

let kill_stats c =
  List.fold_left
    (fun s fr ->
      let killed = fr.kill <> Survived in
      {
        injected = s.injected + 1;
        killed_input =
          (s.killed_input
          + match fr.kill with Killed_input _ -> 1 | _ -> 0);
        killed_symbolic =
          (s.killed_symbolic
          + match fr.kill with Killed_symbolic _ -> 1 | _ -> 0);
        survived = (s.survived + if killed then 0 else 1);
        detectable = (s.detectable + if fr.fault.Fault.detectable then 1 else 0);
        detectable_killed =
          (s.detectable_killed
          + if fr.fault.Fault.detectable && killed then 1 else 0);
      })
    {
      injected = 0;
      killed_input = 0;
      killed_symbolic = 0;
      survived = 0;
      detectable = 0;
      detectable_killed = 0;
    }
    c.faults

let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b

let kill_score_pct s = pct (s.killed_input + s.killed_symbolic) s.injected
let detectable_score_pct s = pct s.detectable_killed s.detectable

(* Input-based co-simulation that never escapes: a faulty design that
   hangs or loses its control state (Failure from the cycle-bounded
   run) is a detected divergence, not a crash.  [x_dont_care]: the
   netlist under test is always a tailored design (or a mutant of
   one), whose const-X ties on application-dead state are correct by
   construction; only the concrete bits must match the ISS. *)
let cosim ~core ~netlist b ~seed =
  match Runner.co_simulate ~netlist ~x_dont_care:true ~core b ~seed with
  | r -> r
  | exception Failure m ->
    Error
      { Lockstep.at_insn = -1; at_pc = -1; what = "hang"; detail = m }

(* The symbolic layer: replay the original design's recorded execution
   tree on [shadow_net], comparing architectural state at every
   boundary. *)
let symbolic_check ~core ~report ~shadow_net b =
  Obs.Span.with_ ~name:"verify.symbolic" ~args:[ ("benchmark", b.B.name) ]
  @@ fun () ->
  let t0 = now () in
  let sh = System.create ~netlist:shadow_net ~core (Runner.image ~core b) in
  match Activity.replay report sh with
  | () ->
    {
      sym_ok = true;
      sym_paths = report.Activity.paths;
      sym_time_s = now () -. t0;
      sym_detail = None;
    }
  | exception Activity.Shadow_mismatch m ->
    {
      sym_ok = false;
      sym_paths = 0;
      sym_time_s = now () -. t0;
      sym_detail = Some m;
    }

(* The ISS's architectural registers at the first instruction boundary
   lockstep compares (after the first instruction) on input [seed] —
   what {!Fault.generate} contradicts to make a stuck-at detectable. *)
let first_boundary_regs ~core b ~seed =
  let iss, set_irq = Runner.loaded_iss ~core b ~seed in
  set_irq ();
  iss.Coredef.step ();
  iss.Coredef.reg

let shrink ~check seeds =
  Obs.Span.with_ ~name:"verify.shrink" (fun () -> Shrink.of_seeds ~check seeds)

let real_gate (g : Gate.t) =
  match g.Gate.op with Gate.Input | Gate.Const _ -> false | _ -> true

let check_benchmark ?(faults = 8) ?(seed = 1) ?explore_budget ~core b =
  Obs.Span.with_ ~name:"verify.campaign"
    ~args:[ ("benchmark", b.B.name); ("core", core.Coredef.name) ]
  @@ fun () ->
  Obs.Metrics.incr m_campaigns;
  let t0 = now () in
  (* tailor — through the flow cache, so a campaign that re-verifies a
     benchmark (or follows a tailor/guard job for it) reuses the cut *)
  let t = Runner.tailor_cached ~core b in
  let { Runner.report; bespoke; stats; _ } = t in
  (* layer 1a: coverage-directed input-based co-simulation *)
  let cov =
    Obs.Span.with_ ~name:"verify.explore" (fun () ->
        Coverage.explore ?budget:explore_budget ~core b)
  in
  let toggle_union = Array.make (Netlist.gate_count bespoke) 0 in
  let inputs =
    Obs.Span.with_ ~name:"verify.inputs" @@ fun () ->
    List.map
      (fun s ->
        Obs.Metrics.incr m_inputs;
        let t = now () in
        let r = cosim ~core ~netlist:bespoke b ~seed:s in
        (match r with
        | Ok lr ->
          Array.iteri
            (fun i c -> toggle_union.(i) <- toggle_union.(i) + c)
            lr.Lockstep.toggles
        | Error _ -> ());
        {
          ir_seed = s;
          ir_time_s = now () -. t;
          ir_diverged =
            (match r with Ok _ -> None | Error i -> Some i);
        })
      cov.Coverage.kept_seeds
  in
  let gate_pct =
    let total = ref 0 and hit = ref 0 in
    Array.iteri
      (fun i g ->
        if real_gate g then begin
          incr total;
          if toggle_union.(i) > 0 then incr hit
        end)
      bespoke.Netlist.gates;
    pct !hit !total
  in
  let inputs_ok = List.for_all (fun ir -> ir.ir_diverged = None) inputs in
  let repro =
    if inputs_ok then None
    else
      shrink
        ~check:(fun s ->
          match cosim ~core ~netlist:bespoke b ~seed:s with
          | Ok _ -> None
          | Error i -> Some i)
        cov.Coverage.kept_seeds
  in
  (* layer 1b: symbolic state-trace comparison *)
  let symbolic = symbolic_check ~core ~report ~shadow_net:bespoke b in
  (* deployment-guard shadow check: replay the benchmark itself on the
     bespoke design with the cut-assumption watcher attached — on the
     application the design was tailored to, the guard must stay
     silent, so a violation here is a checker-level red flag on the
     tailoring, independent of the equivalence layers *)
  let guard =
    Obs.Span.with_ ~name:"verify.guard" @@ fun () ->
    let gplan = Guard.plan_of_tailored t in
    let gw = Guard.watch_bespoke gplan in
    let _ = Guard.replay gw ~core ~netlist:bespoke b ~seed in
    {
      gc_assumptions = List.length gplan.Guard.p_assumptions;
      gc_monitors = List.length gplan.Guard.p_monitors;
      gc_implied = gplan.Guard.p_implied;
      gc_unmonitorable = gplan.Guard.p_unmonitorable;
      gc_cycles = Guard.cycles_checked gw;
      gc_violations = Guard.total_violations gw;
    }
  in
  (* layer 2: adversarial fault injection, each fault checked by the
     input layer first and the symbolic layer as a fallback; layer 3
     shrinks every diverging case before it is recorded *)
  let fault_list =
    (* explore always keeps its initial seeds, and the kill check below
       co-simulates every kept seed *)
    let first_boundary =
      first_boundary_regs ~core b ~seed:(List.hd cov.Coverage.kept_seeds)
    in
    Fault.generate ~seed ~core ~n:faults ~toggles:toggle_union ~first_boundary
      bespoke
  in
  let fault_results =
    List.map
      (fun f ->
        Obs.Span.with_ ~name:"verify.fault"
          ~args:
            [
              ("benchmark", b.B.name);
              ("kind", Fault.kind_name f.Fault.kind);
              ("gate", string_of_int f.Fault.gate);
            ]
        @@ fun () ->
        Obs.Metrics.incr m_faults;
        let t = now () in
        let faulty =
          Obs.Span.with_ ~name:"verify.inject" (fun () -> Fault.inject bespoke f)
        in
        let kill =
          match
            shrink
              ~check:(fun s ->
                match cosim ~core ~netlist:faulty b ~seed:s with
                | Ok _ -> None
                | Error i -> Some i)
              cov.Coverage.kept_seeds
          with
          | Some repro -> Killed_input repro
          | None -> (
            let sym = symbolic_check ~core ~report ~shadow_net:faulty b in
            match sym.sym_detail with
            | Some m when not sym.sym_ok -> Killed_symbolic m
            | _ -> Survived)
        in
        Obs.Metrics.incr
          (if kill = Survived then m_survived else m_killed);
        { fault = f; kill; fr_time_s = now () -. t })
      fault_list
  in
  let campaign =
    {
      benchmark = b.B.name;
      core = core.Coredef.name;
      gates_original = stats.Cut.original_gates;
      gates_bespoke = stats.Cut.bespoke_gates;
      symbolic;
      inputs;
      coverage = cov;
      gate_pct;
      equivalent = inputs_ok && symbolic.sym_ok;
      repro;
      faults = fault_results;
      guard;
      total_time_s = now () -. t0;
    }
  in
  if Obs.enabled () then
    Obs.Metrics.set g_kill_score (kill_score_pct (kill_stats campaign));
  campaign

let run_campaign ?faults ?seed ?explore_budget ?jobs ~core benches =
  Pool.map ?jobs
    (fun b -> check_benchmark ?faults ?seed ?explore_budget ~core b)
    benches

(* ---- the bespoke-verify/v1 artifact ---- *)

let schema = "bespoke-verify/v1"

module J = Obs.Json

let repro_json (r : Shrink.repro) =
  J.obj
    [
      ("seeds", J.arr (List.map J.int r.Shrink.seeds));
      ("at_insn", J.int r.Shrink.info.Lockstep.at_insn);
      ("at_pc", J.int r.Shrink.info.Lockstep.at_pc);
      ("what", J.str r.Shrink.info.Lockstep.what);
      ("detail", J.str r.Shrink.info.Lockstep.detail);
    ]

let fault_json fr =
  let f = fr.fault in
  J.obj
    (("id", J.int f.Fault.id)
     :: ("kind", J.str (Fault.kind_name f.Fault.kind))
     :: ("gate", J.int f.Fault.gate)
     :: ("site", J.str f.Fault.desc)
     :: ("detectable", J.bool f.Fault.detectable)
     :: ( "kill",
          J.str
            (match fr.kill with
            | Killed_input _ -> "input"
            | Killed_symbolic _ -> "symbolic"
            | Survived -> "survived") )
     :: ("time_s", J.num fr.fr_time_s)
     ::
     (match fr.kill with
     | Killed_input r -> [ ("repro", repro_json r) ]
     | Killed_symbolic m -> [ ("detail", J.str m) ]
     | Survived -> []))

let campaign_json c =
  let s = kill_stats c in
  let input_time =
    List.fold_left (fun acc ir -> acc +. ir.ir_time_s) 0.0 c.inputs
  in
  let n_inputs = List.length c.inputs in
  J.obj
    (("name", J.str c.benchmark)
     :: ("core", J.str c.core)
     :: ( "gates",
          J.obj
            [
              ("original", J.int c.gates_original);
              ("bespoke", J.int c.gates_bespoke);
            ] )
     :: ( "symbolic",
          J.obj
            (("equivalent", J.bool c.symbolic.sym_ok)
             :: ("paths", J.int c.symbolic.sym_paths)
             :: ("time_s", J.num c.symbolic.sym_time_s)
             ::
             (match c.symbolic.sym_detail with
             | Some m -> [ ("detail", J.str m) ]
             | None -> [])) )
     :: ( "inputs",
          J.obj
            [
              ("count", J.int n_inputs);
              ("seeds", J.arr (List.map (fun ir -> J.int ir.ir_seed) c.inputs));
              ("time_s", J.num input_time);
              ( "time_s_per_input",
                J.num (if n_inputs = 0 then 0.0 else input_time /. float_of_int n_inputs) );
              ("line_pct", J.num c.coverage.Coverage.line_pct);
              ("branch_pct", J.num c.coverage.Coverage.branch_pct);
              ("branch_dir_pct", J.num c.coverage.Coverage.branch_dir_pct);
              ("gate_pct", J.num c.gate_pct);
              ( "all_ok",
                J.bool (List.for_all (fun ir -> ir.ir_diverged = None) c.inputs)
              );
            ] )
     :: ("verdict", J.str (if c.equivalent then "equivalent" else "divergent"))
     :: ( "fault_injection",
          J.obj
            [
              ("injected", J.int s.injected);
              ("killed_input", J.int s.killed_input);
              ("killed_symbolic", J.int s.killed_symbolic);
              ("survived", J.int s.survived);
              ("detectable", J.int s.detectable);
              ("detectable_killed", J.int s.detectable_killed);
              ("kill_score_pct", J.num (kill_score_pct s));
              ("detectable_score_pct", J.num (detectable_score_pct s));
              ("faults", J.arr (List.map fault_json c.faults));
            ] )
     :: ( "guard",
          J.obj
            [
              ("assumptions", J.int c.guard.gc_assumptions);
              ("monitors", J.int c.guard.gc_monitors);
              ("implied", J.int c.guard.gc_implied);
              ("unmonitorable", J.int c.guard.gc_unmonitorable);
              ("cycles", J.int c.guard.gc_cycles);
              ("violations", J.int c.guard.gc_violations);
              ("clean", J.bool (c.guard.gc_violations = 0));
            ] )
     :: ("time_s", J.num c.total_time_s)
     ::
     (match c.repro with
     | Some r -> [ ("repro", repro_json r) ]
     | None -> []))

let to_json campaigns =
  let core_name =
    match campaigns with c :: _ -> c.core | [] -> "unknown"
  in
  J.obj
    [
      ("schema", J.str schema);
      ("generator", J.str "bespoke_cli verify");
      ("core", J.str core_name);
      ("benchmarks", J.arr (List.map campaign_json campaigns));
    ]
  ^ "\n"

let pp_text ppf campaigns =
  List.iter
    (fun c ->
      let s = kill_stats c in
      Format.fprintf ppf "%s [%s]: %s@." c.benchmark c.core
        (if c.equivalent then "EQUIVALENT" else "DIVERGENT");
      Format.fprintf ppf
        "  gates %d -> %d; symbolic: %s (%d paths, %.3f s)@."
        c.gates_original c.gates_bespoke
        (if c.symbolic.sym_ok then "ok" else "MISMATCH")
        c.symbolic.sym_paths c.symbolic.sym_time_s;
      (match c.symbolic.sym_detail with
      | Some m -> Format.fprintf ppf "    %s@." m
      | None -> ());
      let input_time =
        List.fold_left (fun acc ir -> acc +. ir.ir_time_s) 0.0 c.inputs
      in
      Format.fprintf ppf
        "  inputs: %d seeds in %.3f s; coverage line %.1f%%, branch \
         %.1f%%, branch-dir %.1f%%, gate %.1f%%@."
        (List.length c.inputs) input_time c.coverage.Coverage.line_pct
        c.coverage.Coverage.branch_pct c.coverage.Coverage.branch_dir_pct
        c.gate_pct;
      (match c.repro with
      | Some r -> Format.fprintf ppf "  repro: %a@." Shrink.pp_repro r
      | None -> ());
      Format.fprintf ppf
        "  faults: %d injected, %d killed by inputs, %d by the symbolic \
         shadow, %d survived (kill score %.0f%%; detectable %d/%d)@."
        s.injected s.killed_input s.killed_symbolic s.survived
        (kill_score_pct s) s.detectable_killed s.detectable;
      List.iter
        (fun fr ->
          Format.fprintf ppf "    [%d] %-12s %s -> %s@." fr.fault.Fault.id
            (Fault.kind_name fr.fault.Fault.kind)
            fr.fault.Fault.desc
            (match fr.kill with
            | Killed_input r -> Format.asprintf "killed (%a)" Shrink.pp_repro r
            | Killed_symbolic m -> "killed symbolically: " ^ m
            | Survived -> "SURVIVED"))
        c.faults;
      let g = c.guard in
      Format.fprintf ppf
        "  guard: %d monitor(s) over %d assumption(s) (%d implied, %d \
         unmonitorable), %d cycle(s), %s@."
        g.gc_monitors g.gc_assumptions g.gc_implied g.gc_unmonitorable
        g.gc_cycles
        (if g.gc_violations = 0 then "clean"
         else Printf.sprintf "%d VIOLATION(S)" g.gc_violations))
    campaigns
