module Coredef = Bespoke_coreapi.Coredef
module Runner = Bespoke_core.Runner
module Benchmark = Bespoke_programs.Benchmark
module Obs = Bespoke_obs.Obs

(* Coverage telemetry (no-ops unless Obs is enabled), in the same
   style as the sim/analysis instrumentation: counters accumulate
   across measurements, gauges hold the most recent result. *)
let m_trace_runs = Obs.Metrics.counter "coverage.trace_runs"
let m_candidates = Obs.Metrics.counter "coverage.candidates_tried"
let g_kept_seeds = Obs.Metrics.gauge "coverage.kept_seeds"
let g_line_pct = Obs.Metrics.gauge "coverage.line_pct"
let g_branch_pct = Obs.Metrics.gauge "coverage.branch_pct"
let g_branch_dir_pct = Obs.Metrics.gauge "coverage.branch_dir_pct"

type stats = {
  kept_seeds : int list;
  line_pct : float;
  branch_pct : float;
  branch_dir_pct : float;
  lines_total : int;
  branches_total : int;
}

let record_stats s =
  if Obs.enabled () then begin
    Obs.Metrics.set g_kept_seeds (float_of_int (List.length s.kept_seeds));
    Obs.Metrics.set g_line_pct s.line_pct;
    Obs.Metrics.set g_branch_pct s.branch_pct;
    Obs.Metrics.set g_branch_dir_pct s.branch_dir_pct
  end

let rom_word_of ~core (img : Coredef.image) a =
  if Coredef.in_rom core a then
    img.Coredef.rom.((a - core.Coredef.rom_base) lsr core.Coredef.addr_shift)
  else 0

(* Classification of the instruction at [a], or [None] when the word
   does not decode (data in the instruction stream). *)
let classify_opt ~core img a =
  match core.Coredef.classify ~rom_word:(rom_word_of ~core img) ~pc:a with
  | info -> Some info
  | exception Failure _ -> None

(* Static program structure: instruction starts and conditional
   branches. *)
let program_shape ~core (img : Coredef.image) =
  let starts = img.Coredef.insn_addrs in
  let branches =
    List.filter
      (fun a ->
        match classify_opt ~core img a with
        | Some info -> info.Coredef.ci_cond_branch
        | None -> false)
      starts
  in
  (starts, branches)

(* One concrete ISS run recording executed addresses and branch
   directions. *)
let trace_run ~core (b : Benchmark.t) ~seed ~executed ~taken ~not_taken =
  Obs.Metrics.incr m_trace_runs;
  let img = Runner.image ~core b in
  let t, set_irq = Runner.loaded_iss ~core b ~seed in
  let steps = ref 0 in
  while (not (t.Coredef.halted ())) && !steps < 500_000 do
    set_irq ();
    let pc0 = t.Coredef.pc () in
    let info = classify_opt ~core img pc0 in
    t.Coredef.step ();
    incr steps;
    Hashtbl.replace executed pc0 ();
    (match info with
    | Some i when i.Coredef.ci_cond_branch ->
      (* took the branch iff PC is not sequential (and the step was
         not pre-empted by an interrupt entry) *)
      if t.Coredef.pc () = i.Coredef.ci_next then
        Hashtbl.replace not_taken pc0 ()
      else if t.Coredef.pc () <> t.Coredef.irq_entry () then
        Hashtbl.replace taken pc0 ()
    | _ -> ())
  done;
  t.Coredef.halted ()

let coverage_of ~core (b : Benchmark.t) seeds =
  let img = Runner.image ~core b in
  let starts, branches = program_shape ~core img in
  let executed = Hashtbl.create 128 in
  let taken = Hashtbl.create 32 in
  let not_taken = Hashtbl.create 32 in
  List.iter
    (fun seed -> ignore (trace_run ~core b ~seed ~executed ~taken ~not_taken))
    seeds;
  let lines_total = List.length starts in
  let branches_total = List.length branches in
  let lines_hit =
    List.length (List.filter (Hashtbl.mem executed) starts)
  in
  let branches_hit =
    List.length (List.filter (Hashtbl.mem executed) branches)
  in
  let dirs_hit =
    List.fold_left
      (fun acc a ->
        acc
        + (if Hashtbl.mem taken a then 1 else 0)
        + if Hashtbl.mem not_taken a then 1 else 0)
      0 branches
  in
  let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b in
  {
    kept_seeds = seeds;
    line_pct = pct lines_hit lines_total;
    branch_pct = pct branches_hit branches_total;
    branch_dir_pct = pct dirs_hit (2 * branches_total);
    lines_total;
    branches_total;
  }

let measure ~core b ~seeds =
  let s = coverage_of ~core b seeds in
  record_stats s;
  s

let score s = s.line_pct +. s.branch_dir_pct

let explore ?(initial = 2) ?(budget = 40) ~core b =
  Obs.Span.with_ ~name:"coverage.explore"
    ~args:
      [
        ("benchmark", b.Benchmark.name);
        ("initial", string_of_int initial);
        ("budget", string_of_int budget);
      ]
  @@ fun () ->
  let seeds = ref (List.init initial (fun i -> i + 1)) in
  let best = ref (coverage_of ~core b !seeds) in
  let candidate = ref (initial + 1) in
  let stale = ref 0 in
  while !stale < 10 && !candidate <= initial + budget
        && score !best < 200.0 -. 1e-9 do
    let trial = !seeds @ [ !candidate ] in
    Obs.Metrics.incr m_candidates;
    let s = coverage_of ~core b trial in
    if score s > score !best +. 1e-9 then begin
      seeds := trial;
      best := s;
      stale := 0
    end
    else incr stale;
    incr candidate
  done;
  record_stats !best;
  !best
