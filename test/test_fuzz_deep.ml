(* Slow-tier campaigns (`dune build @slow`): the same properties as
   the fast tier, at depths that take minutes rather than seconds.

   - deep lockstep + flow fuzzing with the shared {!Fuzzgen} generator;
   - a full verification campaign (all benchmarks, fault injection,
     shrinking) asserting equivalence and a 100% detectable-fault kill
     score everywhere. *)

module B = Bespoke_programs.Benchmark
module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_coreapi.Lockstep
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Verify = Bespoke_verify.Verify
module Msp430 = Bespoke_cpu.Msp430
let core = Msp430.core

let shared = lazy (Runner.shared_netlist core)

let report_divergence ~seed ~src what detail =
  QCheck.Test.fail_reportf
    "seed %d %s: %s@\n\
     replay: BESPOKE_FUZZ_SEED=%d dune exec test/test_fuzz.exe@\n\
     --- generated assembly (seed %d) ---@\n\
     %s--- end assembly ---"
    seed what detail seed seed src

let test_lockstep_fuzz_deep =
  QCheck.Test.make ~name:"deep lockstep fuzz" ~count:400
    QCheck.(pair (int_bound 10_000_000) (int_bound 0xffff))
    (fun (seed, gpio) ->
      let src = Fuzzgen.program ~seed in
      let img = Asm.assemble src in
      match
        Lockstep.run ~netlist:(Lazy.force shared) ~gpio_in:gpio
          ~core (Msp430.coreimage img)
      with
      | _ -> true
      | exception Lockstep.Divergence m ->
        report_divergence ~seed ~src
          (Printf.sprintf "(gpio 0x%04x) diverged" gpio) m)

let test_flow_fuzz_deep =
  QCheck.Test.make ~name:"deep flow fuzz" ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let src = Fuzzgen.program ~seed in
      let img = Asm.assemble src in
      let net = Lazy.force shared in
      let sys = System.create ~netlist:net ~core (Msp430.coreimage img) in
      let report =
        try Activity.analyze sys
        with Activity.Analysis_error m ->
          report_divergence ~seed ~src "analysis failed" m
      in
      let bespoke, _ =
        Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
          ~constants:report.Activity.constant_values
      in
      List.for_all
        (fun gpio ->
          let a =
            Lockstep.run ~netlist:net ~gpio_in:gpio ~core (Msp430.coreimage img)
          in
          let b =
            Lockstep.run ~netlist:bespoke ~gpio_in:gpio
              ~core (Msp430.coreimage img)
          in
          a.Lockstep.gpio_final = b.Lockstep.gpio_final
          && a.Lockstep.cycles = b.Lockstep.cycles
          && a.Lockstep.outputs = b.Lockstep.outputs)
        [ 0; 0x00ff; 0xa5a5; 0xffff ])

(* Full campaign across every benchmark: the whole three-layer checker
   must declare every tailoring equivalent, and every detectable
   injected fault must be killed with a shrunk repro. *)
let test_full_campaign () =
  let campaigns = Verify.run_campaign ~core ~faults:6 ~seed:1 B.all in
  List.iter
    (fun (c : Verify.campaign) ->
      Alcotest.(check bool)
        (c.Verify.benchmark ^ " equivalent")
        true c.Verify.equivalent;
      let s = Verify.kill_stats c in
      Alcotest.(check (float 0.01))
        (c.Verify.benchmark ^ " detectable kill score")
        100.0
        (Verify.detectable_score_pct s);
      List.iter
        (fun (fr : Verify.fault_result) ->
          match fr.Verify.kill with
          | Verify.Killed_input r ->
            Alcotest.(check bool)
              (c.Verify.benchmark ^ " repro non-empty")
              true
              (r.Bespoke_verify.Shrink.seeds <> [])
          | _ -> ())
        c.Verify.faults)
    campaigns

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_fuzz_deep"
    [
      ("deep-fuzz", [ qt test_lockstep_fuzz_deep; qt test_flow_fuzz_deep ]);
      ( "deep-verify",
        [ Alcotest.test_case "full campaign" `Slow test_full_campaign ] );
    ]
