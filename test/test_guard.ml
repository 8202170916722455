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
    (fun (label, mode) ->
      let w = Guard.watch_bespoke plan in
      let eng = ref None in
      let o =
        Runner.run_gate ~core ~mode
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
    [ ("full", Engine.Full); ("compiled", Engine.Compiled) ]

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
          Alcotest.test_case "vcd of instrumented design" `Quick
            test_vcd_of_instrumented;
        ] );
    ]
