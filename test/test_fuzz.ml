(* Random-program fuzzing (fast tier; see test_fuzz_deep for the
   @slow campaign):

   - programs come from the shared {!Fuzzgen} generator (deterministic
     in the seed, always terminating);
   - every program runs in lockstep, gate-level vs. ISS (exact
     architectural state every instruction, exact cycle counts);
   - a subset goes through the whole bespoke flow: symbolic analysis,
     cut & stitch, and re-verification of the tailored design.

   Any divergence report includes the PRNG seed and the generated
   assembly listing, so it can be replayed from the log alone:

     BESPOKE_FUZZ_SEED=<seed> dune exec test/test_fuzz.exe *)

module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_coreapi.Lockstep
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
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

let test_lockstep_fuzz =
  QCheck.Test.make ~name:"random programs run in exact lockstep" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_bound 0xffff))
    (fun (seed, gpio) ->
      let src = Fuzzgen.program ~seed in
      match Asm.assemble src with
      | exception Asm.Error { line; message } ->
        QCheck.Test.fail_reportf "generator produced bad asm (seed %d): line %d %s"
          seed line message
      | img -> (
        match
          Lockstep.run ~netlist:(Lazy.force shared) ~gpio_in:gpio
            ~core (Msp430.coreimage img)
        with
        | _ -> true
        | exception Lockstep.Divergence m ->
          report_divergence ~seed ~src
            (Printf.sprintf "(gpio 0x%04x) diverged" gpio) m))

let test_flow_fuzz =
  QCheck.Test.make ~name:"random programs survive the full bespoke flow"
    ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = Fuzzgen.program ~seed in
      let img = Asm.assemble src in
      let net = Lazy.force shared in
      let sys = System.create ~netlist:net ~core (Msp430.coreimage img) in
      match Activity.analyze sys with
      | exception Activity.Analysis_error m ->
        report_divergence ~seed ~src "analysis failed" m
      | report ->
        let bespoke, stats =
          Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
            ~constants:report.Activity.constant_values
        in
        if stats.Cut.bespoke_gates >= stats.Cut.original_gates then
          report_divergence ~seed ~src "tailoring" "nothing cut";
        List.for_all
          (fun gpio ->
            let a =
              Lockstep.run ~netlist:net ~gpio_in:gpio
                ~core (Msp430.coreimage img)
            in
            let b =
              Lockstep.run ~netlist:bespoke ~gpio_in:gpio
                ~core (Msp430.coreimage img)
            in
            a.Lockstep.gpio_final = b.Lockstep.gpio_final
            && a.Lockstep.cycles = b.Lockstep.cycles
            && a.Lockstep.outputs = b.Lockstep.outputs)
          [ 0; 0x00ff; 0xa5a5; 0xffff ])

(* Replay one specific seed from a failure log: prints the listing and
   runs the lockstep check for it alone. *)
let replay_cases =
  match Sys.getenv_opt "BESPOKE_FUZZ_SEED" with
  | None -> []
  | Some s ->
    let seed = int_of_string s in
    [
      Alcotest.test_case (Printf.sprintf "replay seed %d" seed) `Quick
        (fun () ->
          let src = Fuzzgen.program ~seed in
          Printf.printf "--- generated assembly (seed %d) ---\n%s%!" seed src;
          let img = Asm.assemble src in
          ignore (Lockstep.run ~netlist:(Lazy.force shared)
            ~core (Msp430.coreimage img)));
    ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_fuzz"
    [ ("fuzz", (qt test_lockstep_fuzz :: qt test_flow_fuzz :: replay_cases)) ]
