(* End-to-end integration: the complete bespoke flow — symbolic
   analysis, cut & stitch, re-synthesis — followed by both of the
   paper's verification procedures, for a representative slice of the
   benchmark suite (the full sweep lives in the bench harness). *)

module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Sta = Bespoke_power.Sta
module Voltage = Bespoke_power.Voltage
module Report = Bespoke_power.Report
module Msp430 = Bespoke_cpu.Msp430
let core = Msp430.core

let flow_test (b : B.t) () =
  let report, net = Runner.analyze ~core b in
  let bespoke, stats =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  (* sane savings *)
  Alcotest.(check bool) "cut a substantial fraction" true
    (float_of_int stats.Cut.bespoke_gates
    < 0.8 *. float_of_int stats.Cut.original_gates);
  Alcotest.(check bool) "area shrank" true
    (stats.Cut.bespoke_area < stats.Cut.original_area);
  (* timing: the bespoke design never gets slower *)
  let sta0 = Sta.analyze net and sta1 = Sta.analyze bespoke in
  Alcotest.(check bool) "no slower" true
    (sta1.Sta.critical_path_ps <= sta0.Sta.critical_path_ps +. 1e-6);
  let vmin =
    Voltage.vmin ~critical_path_ps:sta1.Sta.critical_path_ps
      ~period_ps:sta0.Sta.critical_path_ps
  in
  Alcotest.(check bool) "vmin within range" true
    (vmin >= Bespoke_cells.Cells.vdd_floor -. 1e-9 && vmin <= 1.0 +. 1e-9);
  (* power at vmin is cheaper than at nominal *)
  let pw vdd =
    (Report.power ~vdd ~freq_hz:1e8
       ~toggles:(Array.make (Netlist.gate_count bespoke) 1)
       ~cycles:1 bespoke)
      .Report.total_nw
  in
  Alcotest.(check bool) "voltage scaling saves power" true
    (pw vmin <= pw 1.0 +. 1e-9);
  (* verification 1: input-based equivalence over several input sets *)
  List.iter
    (fun seed -> ignore (Runner.check_equivalence ~core ~netlist:bespoke b ~seed))
    [ 1; 2; 3 ];
  (* verification 2: symbolic shadow through the same execution tree *)
  let sys = System.create ~core (Msp430.coreimage (B.image b)) in
  let sh =
    System.create ~netlist:bespoke ~core (Msp430.coreimage (B.image b))
  in
  let config =
    {
      Activity.default_config with
      Activity.ram_x_ranges = b.B.input_ranges;
      irq_x = b.B.uses_irq;
    }
  in
  ignore (Activity.analyze ~config ~shadow:sh sys)

let subset = [ "div"; "tHold"; "convEn"; "irq" ]

let () =
  Alcotest.run "bespoke_flow"
    [
      ( "end-to-end",
        List.map
          (fun name ->
            Alcotest.test_case name `Slow (flow_test (B.find name)))
          subset );
    ]
