module B = Bespoke_programs.Benchmark
module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Multi = Bespoke_core.Multi
module Mutation = Bespoke_mutation.Mutation
module Provenance = Bespoke_report.Provenance
module Guard = Bespoke_guard.Guard
module Engine = Bespoke_sim.Engine
module Sweep = Bespoke_oracle.Sweep
module Vcd = Bespoke_sim.Vcd
module Obs = Bespoke_obs.Obs
let core = Bespoke_cpu.Msp430.core

(* One tailoring, shared by every test: analyze + tailor_explained +
   plan are deterministic, so computing them once keeps the suite in
   the fast tier. *)
let tailored =
  lazy
    (let base = B.find "mult" in
     let r, net = Runner.analyze ~core base in
     let possibly_toggled = r.Activity.possibly_toggled in
     let constants = r.Activity.constant_values in
     let bespoke, stats, prov =
       Cut.tailor_explained net ~possibly_toggled ~constants
     in
     let plan =
       Guard.plan ~original:net ~bespoke ~prov ~possibly_toggled ~constants
     in
     (base, net, r, bespoke, stats, prov, plan))

let test_assumptions_match_cuts () =
  let _, net, r, _, stats, _, plan = Lazy.force tailored in
  let n = List.length plan.Guard.p_assumptions in
  Alcotest.(check int) "one assumption per cut gate" stats.Cut.cut_gates n;
  (* the partition is total *)
  Alcotest.(check int)
    "monitors + implied + unmonitorable = assumptions"
    n
    (List.length plan.Guard.p_monitors
    + plan.Guard.p_implied + plan.Guard.p_unmonitorable);
  Alcotest.(check bool) "has hardware-checkable monitors" true
    (List.length plan.Guard.p_monitors > 0);
  (* every assumption names a real never-toggled gate with a known
     constant *)
  List.iter
    (fun { Cut.a_gate; a_const } ->
      Alcotest.(check bool) "cut gate not possibly toggled" false
        r.Activity.possibly_toggled.(a_gate);
      Alcotest.(check bool) "assumed constant is known" true
        (Bit.is_known a_const);
      match (Netlist.gate_count net > a_gate, a_const) with
      | true, _ -> ()
      | false, _ -> Alcotest.fail "gate id out of range")
    plan.Guard.p_assumptions

let test_instrumented_design_valid () =
  let _, _, _, bespoke, _, _, plan = Lazy.force tailored in
  let inst = Guard.instrument plan in
  let d = inst.Guard.i_design in
  (* validated at construction; check the guard surface *)
  Alcotest.(check bool) "guard_violation port" true
    (List.mem_assoc "guard_violation" d.Netlist.output_ports);
  Alcotest.(check bool) "guard_sticky named" true (Netlist.mem_name d "guard_sticky");
  Alcotest.(check bool) "guard_mismatch named" true
    (Netlist.mem_name d "guard_mismatch");
  Alcotest.(check int) "one sticky bit per monitor"
    (Array.length inst.Guard.i_monitors)
    (Array.length (Netlist.find_name d "guard_sticky"));
  Alcotest.(check bool) "adds gates" true (inst.Guard.i_added_gates > 0);
  Alcotest.(check bool) "adds sticky + armed DFFs" true
    (inst.Guard.i_added_dffs = Array.length inst.Guard.i_monitors + 1);
  (* the original ports are untouched *)
  List.iter
    (fun (name, bits) ->
      Alcotest.(check bool) (name ^ " preserved") true
        (List.assoc_opt name d.Netlist.output_ports = Some bits))
    bespoke.Netlist.output_ports;
  let hw = Guard.hw_stats plan inst in
  Alcotest.(check bool) "positive area overhead" true (hw.Guard.h_area_um2 > 0.0);
  Alcotest.(check bool) "positive leakage overhead" true
    (hw.Guard.h_leakage_nw > 0.0)

(* Soundness, clean side: on its own benchmark the instrumented design
   matches the ISS (results, GPIO, cycles), the shadow watcher sees zero
   violations, and the hardware guard_violation port stays 0 — on the
   compiled engine and on the full reference sweep. *)
let test_clean_on_own_benchmark () =
  let base, _, _, _, _, _, plan = Lazy.force tailored in
  let inst = Guard.instrument plan in
  let iss = Runner.run_iss ~core base ~seed:1 in
  List.iter
    (fun (label, engine) ->
      let w = Guard.watch_bespoke plan in
      let eng = ref None in
      let o =
        Runner.run_gate ~core ~engine
          ~attach:(fun e ->
            eng := Some e;
            Guard.attach w e)
          ~netlist:inst.Guard.i_design base ~seed:1
      in
      Alcotest.(check (list (pair int (option int))))
        (label ^ ": results match the ISS")
        (List.map (fun (a, v) -> (a, Some v)) iss.Runner.results)
        o.Runner.g_results;
      Alcotest.(check (option int)) (label ^ ": gpio matches the ISS")
        (Some iss.Runner.gpio_out) o.Runner.g_gpio_out;
      Alcotest.(check int) (label ^ ": cycles match the ISS")
        (iss.Runner.cycles + core.Bespoke_coreapi.Coredef.reset_extra_cycles)
        o.Runner.g_cycles;
      Alcotest.(check bool) (label ^ ": shadow clean") true (Guard.clean w);
      Alcotest.(check bool) (label ^ ": cycles checked") true
        (Guard.cycles_checked w > 0);
      let port = (Netlist.find_output inst.Guard.i_design "guard_violation").(0) in
      Alcotest.(check string) (label ^ ": hw guard_violation low") "0"
        (String.make 1 (Bit.to_char (Engine.value (Option.get !eng) port))))
    [ ("full", Sweep.create); ("compiled", Engine.create) ]

(* Shadow mode on the original design is also clean on the base
   benchmark: the analysis constants really are invariants of every
   concrete run the analysis covers. *)
let test_original_shadow_clean () =
  let base, net, _, _, _, _, plan = Lazy.force tailored in
  let w = Guard.watch_original plan in
  let r = Guard.replay ~core w ~netlist:net base ~seed:2 in
  (match r.Guard.rp_result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "base run failed: %s" e);
  Alcotest.(check bool) "clean" true (Guard.clean w)

(* The violation-side fixture, on rle (mult's mutants are all
   supported by its own bespoke design — the in-field-update example
   shows rle has unsupported ones).  Scan unsupported mutants with
   seeds 1-3 until a shadow-original replay violates and a replay on
   the instrumented design trips the hardware guard_violation port;
   deterministic for a fixed code base, and lazy so the scan runs
   once. *)
let rle_hits =
  lazy
    (let base = B.find "rle" in
     let r_base, net = Runner.analyze ~core base in
     let possibly_toggled = r_base.Activity.possibly_toggled in
     let constants = r_base.Activity.constant_values in
     let bespoke, _, prov =
       Cut.tailor_explained net ~possibly_toggled ~constants
     in
     let plan =
       Guard.plan ~original:net ~bespoke ~prov ~possibly_toggled ~constants
     in
     let inst = Guard.instrument plan in
     let shadow_hit = ref None in
     let hw_hit = ref None in
     let saw_unsupported = ref false in
     List.iter
       (fun (m : Mutation.mutant) ->
         if !shadow_hit = None || !hw_hit = None then begin
           let mb = Mutation.to_benchmark base m in
           let unsupported =
             match Runner.analyze ~core mb with
             | r, _ ->
               not
                 (Multi.supported ~design_toggled:possibly_toggled
                    ~app_toggled:r.Activity.possibly_toggled)
             | exception Activity.Analysis_error _ -> true
           in
           if unsupported then begin
             saw_unsupported := true;
             List.iter
               (fun seed ->
                 if !shadow_hit = None then begin
                   let w = Guard.watch_original plan in
                   let (_ : Guard.replay) =
                     Guard.replay ~core w ~netlist:net mb ~seed
                   in
                   if not (Guard.clean w) then shadow_hit := Some (m, seed, w)
                 end;
                 if !hw_hit = None then begin
                   let w = Guard.watch_bespoke plan in
                   let r =
                     Guard.replay ~core w ~netlist:inst.Guard.i_design mb ~seed
                   in
                   match r.Guard.rp_hw_violation with
                   | Some Bit.One -> hw_hit := Some (m, seed, w)
                   | _ -> ()
                 end)
               [ 1; 2; 3 ]
           end
         end)
       (Mutation.mutants base);
     (net, plan, !saw_unsupported, !shadow_hit, !hw_hit))

(* Soundness, violation side: a mutant the offline Section 5.3 check
   rejects must trip the guard at runtime, and the violation's
   provenance must name the never-toggled cut decision it
   invalidates. *)
let test_unsupported_mutant_violates () =
  let _, plan, saw_unsupported, shadow_hit, _ = Lazy.force rle_hits in
  Alcotest.(check bool) "has unsupported mutants" true saw_unsupported;
  match shadow_hit with
  | None ->
    Alcotest.fail "no unsupported mutant tripped the guard on seeds 1-3"
  | Some (m, seed, w) ->
    Printf.eprintf
      "guard: mutant %d (line %d, %s -> %s) seed %d: %d violation(s)\n%!"
      m.Mutation.id m.Mutation.line m.Mutation.original m.Mutation.replacement
      seed (Guard.total_violations w);
    let vs = Guard.violations w in
    Alcotest.(check bool) "at least one violation" true (vs <> []);
    List.iter
      (fun (v : Guard.violation) ->
        Alcotest.(check bool) "observed value is known" true
          (Bit.is_known v.Guard.v_observed);
        (* the provenance chain names the cut decision *)
        match plan.Guard.p_prov.Provenance.reason.(v.Guard.v_gate) with
        | Some (Provenance.Never_toggled c) ->
          Alcotest.(check string) "reason constant = assumed"
            (String.make 1 (Bit.to_char c))
            (String.make 1 (Bit.to_char v.Guard.v_assumed))
        | other ->
          Alcotest.failf "violated gate %d has reason %s, not never-toggled"
            v.Guard.v_gate
            (match other with
            | Some r -> Provenance.reason_label r
            | None -> "none"))
      vs;
    (* the JSONL record round-trips through the Obs JSON reader and
       carries the provenance fields *)
    let line = Guard.violation_jsonl plan (List.hd vs) in
    (match Obs.Json.parse line with
    | Ok j ->
      Alcotest.(check bool) "reason field = never-toggled" true
        (Obs.Json.member "reason" j = Some (Obs.Json.Str "never-toggled"))
    | Error e -> Alcotest.failf "violation record does not parse (%s): %s" e line)

(* The hardware monitors see a mutant too: replayed on the
   instrumented design, the sticky guard_violation port goes (and
   stays) high by the end of the run, and the shadow recompute
   agrees. *)
let test_hardware_catches_mutant () =
  let _, _, _, _, hw_hit = Lazy.force rle_hits in
  match hw_hit with
  | None -> Alcotest.fail "no mutant tripped the hardware guard on seeds 1-3"
  | Some (m, seed, w) ->
    Printf.eprintf
      "guard hw: mutant %d seed %d raised guard_violation (%d shadow hits)\n%!"
      m.Mutation.id seed (Guard.total_violations w);
    Alcotest.(check bool) "shadow recompute agrees" true (not (Guard.clean w))

(* Violating rle replays give the same first offences, totals, cycle
   count and bespoke-guard/v1 bytes on the compiled engine (packed
   checks) and on the full reference sweep (scalar checks): the
   original-design watcher (one Buf check per assumption) on the
   mutant that trips it, and the bespoke-design watcher (recomputed
   cut functions) on the mutant that trips the hardware guard. *)
let test_violating_replay_engines_agree () =
  let net, plan, _, shadow_hit, hw_hit = Lazy.force rle_hits in
  let replay (label, watch, netlist, hit) =
    match hit with
    | None -> Alcotest.failf "%s: no mutant tripped the guard on seeds 1-3" label
    | Some ((m : Mutation.mutant), seed, _) ->
      let mb = Mutation.to_benchmark (B.find "rle") m in
      let run engine =
        let w = watch plan in
        (try
           ignore
             (Runner.run_gate ~core ~engine ~attach:(Guard.attach w) ~netlist
                ~max_cycles:300_000 mb ~seed)
         with Failure _ -> ());
        let path = Filename.temp_file "guard_replay" ".jsonl" in
        Out_channel.with_open_bin path (fun oc ->
            Guard.write_stream oc plan ~core:"msp430" ~design:"rle"
              ~workload:mb.B.name ~mode:label w);
        let bytes = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        (w, bytes)
      in
      let wc, sc = run Engine.create in
      let wf, sf = run Sweep.create in
      Alcotest.(check bool) (label ^ ": violated") false (Guard.clean wc);
      Alcotest.(check bool) (label ^ ": same first offences") true
        (Guard.violations wc = Guard.violations wf);
      Alcotest.(check int) (label ^ ": same total violations")
        (Guard.total_violations wf) (Guard.total_violations wc);
      Alcotest.(check int) (label ^ ": same cycles checked")
        (Guard.cycles_checked wf) (Guard.cycles_checked wc);
      Alcotest.(check string) (label ^ ": same guard stream") sf sc
  in
  List.iter replay
    [
      ("original", Guard.watch_original, net, shadow_hit);
      ("shadow", Guard.watch_bespoke, plan.Guard.p_bespoke, hw_hit);
    ]

(* guard.exact_scans counts the cycles the exact per-check scan ran:
   none on a clean run, and on a violating run at most one per checked
   cycle and per violation. *)
let test_exact_scans_counter () =
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let base, _, _, bespoke, _, _, plan = Lazy.force tailored in
  Obs.Metrics.reset ();
  Obs.enable ();
  let clean = Guard.watch_bespoke plan in
  ignore (Runner.run_gate ~core ~attach:(Guard.attach clean) ~netlist:bespoke base ~seed:1);
  let clean_scans = counter "guard.exact_scans" in
  let clean_cycles = counter "guard.cycles" in
  Obs.Metrics.reset ();
  let net, rle_plan, _, shadow_hit, _ = Lazy.force rle_hits in
  let hit =
    Option.map
      (fun ((m : Mutation.mutant), seed, _) ->
        let w = Guard.watch_original rle_plan in
        let mb = Mutation.to_benchmark (B.find "rle") m in
        ignore (Guard.replay ~core w ~netlist:net mb ~seed);
        (w, counter "guard.exact_scans"))
      shadow_hit
  in
  Obs.disable ();
  Obs.Metrics.reset ();
  Alcotest.(check bool) "clean run checked cycles" true (clean_cycles > 0);
  Alcotest.(check int) "clean run counted by the watcher"
    (Guard.cycles_checked clean) clean_cycles;
  Alcotest.(check int) "clean run: no exact scan" 0 clean_scans;
  match hit with
  | None -> Alcotest.fail "no unsupported mutant tripped the guard on seeds 1-3"
  | Some (w, scans) ->
    Alcotest.(check bool) "violating run scanned" true (scans > 0);
    Alcotest.(check bool) "at most one scan per cycle" true
      (scans <= Guard.cycles_checked w);
    Alcotest.(check bool) "every scan finds a violation" true
      (scans <= Guard.total_violations w)

(* A plan's checks are lowered once per compiled design: watchers of
   the plan on repeated runs of one design share that lowering
   ([sim.compile.check_lowerings] counts one) and give the verdicts and
   violation lists of a fresh lowering (the same checks in a new array,
   which the cache never matches); the instrumented design is another
   program and lowers its own.  Two watchers of one plan share the
   plan's gate-id and check arrays: together they allocate less than a
   word per monitor, their [tripped] bytes and records. *)
let test_lowering_shared () =
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let _, plan, _, _, hw_hit = Lazy.force rle_hits in
  match hw_hit with
  | None -> Alcotest.fail "no mutant tripped the hardware guard on seeds 1-3"
  | Some ((m : Mutation.mutant), seed, _) ->
    let mb = Mutation.to_benchmark (B.find "rle") m in
    let run plan netlist =
      let w = Guard.watch_bespoke plan in
      (try
         ignore
           (Runner.run_gate ~core ~attach:(Guard.attach w) ~netlist
              ~max_cycles:300_000 mb ~seed)
       with Failure _ -> ());
      (Guard.violations w, Guard.total_violations w, Guard.cycles_checked w)
    in
    let bespoke = plan.Guard.p_bespoke in
    let monitors = Array.length plan.Guard.p_gates in
    let w0 = Gc.minor_words () in
    let pair = (Guard.watch_bespoke plan, Guard.watch_bespoke plan) in
    let words = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity pair);
    Alcotest.(check bool)
      (Printf.sprintf "two watchers of %d monitors allocate %.0f words" monitors words)
      true
      (words < float_of_int monitors);
    Bespoke_sim.Compile.clear_cache ();
    Obs.Metrics.reset ();
    Obs.enable ();
    let first = run plan bespoke in
    let again = List.init 3 (fun _ -> run plan bespoke) in
    let shared = counter "sim.compile.check_lowerings" in
    let fresh =
      run { plan with Guard.p_checks = Array.copy plan.Guard.p_checks } bespoke
    in
    let copied = counter "sim.compile.check_lowerings" in
    ignore (run plan (Guard.instrument plan).Guard.i_design);
    let other = counter "sim.compile.check_lowerings" in
    Obs.disable ();
    Obs.Metrics.reset ();
    let _, total, _ = first in
    Alcotest.(check bool) "the mutant violates" true (total > 0);
    Alcotest.(check int) "four attaches to one design lower once" 1 shared;
    List.iter
      (fun r -> Alcotest.(check bool) "shared lowering: same verdicts" true (r = first))
      again;
    Alcotest.(check int) "a new check array lowers again" 2 copied;
    Alcotest.(check bool) "fresh lowering: same verdicts" true (fresh = first);
    Alcotest.(check int) "another design never reuses the lowering" 3 other

(* VCD export of an instrumented design: the guard nets are
   exportable signals, named in the header and dumped. *)
let test_vcd_of_instrumented () =
  let _, _, _, _, _, _, plan = Lazy.force tailored in
  let inst = Guard.instrument plan in
  let eng = Engine.create inst.Guard.i_design in
  let buf = Buffer.create 4096 in
  let vcd =
    Vcd.create buf eng
      ~signals:[ "guard_violation"; "guard_sticky"; "guard_armed" ]
  in
  Engine.set_all_inputs_x eng;
  Engine.eval eng;
  Vcd.sample vcd ~time:0;
  Engine.step eng;
  Vcd.sample vcd ~time:1;
  Vcd.finish vcd ~time:2;
  let out = Buffer.contents buf in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sig_name ->
      Alcotest.(check bool) (sig_name ^ " in header") true
        (contains out sig_name))
    [ "guard_violation"; "guard_sticky"; "guard_armed" ]

let () =
  Alcotest.run "guard"
    [
      ( "guard",
        [
          Alcotest.test_case "assumptions match cuts" `Quick
            test_assumptions_match_cuts;
          Alcotest.test_case "instrumented design valid" `Quick
            test_instrumented_design_valid;
          Alcotest.test_case "clean on own benchmark (full and compiled)" `Quick
            test_clean_on_own_benchmark;
          Alcotest.test_case "original shadow clean" `Quick
            test_original_shadow_clean;
          Alcotest.test_case "unsupported mutant violates" `Quick
            test_unsupported_mutant_violates;
          Alcotest.test_case "hardware catches mutant" `Quick
            test_hardware_catches_mutant;
          Alcotest.test_case "violating replay: compiled = full" `Quick
            test_violating_replay_engines_agree;
          Alcotest.test_case "exact scans only on violating cycles" `Quick
            test_exact_scans_counter;
          Alcotest.test_case "check lowering shared per design" `Quick
            test_lowering_shared;
          Alcotest.test_case "vcd of instrumented design" `Quick
            test_vcd_of_instrumented;
        ] );
    ]
