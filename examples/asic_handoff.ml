(* The hand-off story: tailor a design once, save it, and produce the
   artifacts a downstream ASIC/FPGA flow or a debug session would
   want — a reloadable netlist, structural Verilog, a module-level
   connectivity graph, and a VCD waveform of the firmware booting on
   the tailored core.

   Run with: dune exec examples/asic_handoff.exe
   (writes its artifacts into ./_handoff/) *)

module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module Serial = Bespoke_netlist.Serial
module Export = Bespoke_netlist.Export
module Coredef = Bespoke_coreapi.Coredef
module Engine = Bespoke_sim.Engine
module Vcd = Bespoke_sim.Vcd
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Activity = Bespoke_analysis.Activity
module Msp430 = Bespoke_cpu.Msp430

let core = Msp430.core

let dir = "_handoff"
let path name = Filename.concat dir name

let write name text =
  let oc = open_out (path name) in
  output_string oc text;
  close_out oc;
  Format.printf "wrote %-22s %7d bytes@." (path name) (String.length text)

let () =
  (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  let bench = B.find "tea8" in
  Format.printf "tailoring %s...@." bench.B.name;
  let report, net = Runner.analyze ~core bench in
  let bespoke, stats =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  Format.printf "%a@." Cut.pp_stats stats;

  (* 1. reloadable netlist *)
  write "tea8.netlist" (Serial.to_string bespoke);
  (* 2. structural Verilog for downstream tools *)
  write "tea8.v" (Export.to_verilog ~module_name:"bespoke_tea8" bespoke);
  (* 3. module connectivity graph (render with: dot -Tsvg) *)
  write "tea8_modules.dot" (Export.module_graph_dot bespoke);

  (* 4. prove the reloaded artifact is the design we tailored *)
  let reloaded = Serial.load (path "tea8.netlist") in
  ignore (Runner.check_equivalence ~netlist:reloaded ~core bench ~seed:7);
  Format.printf "reloaded netlist verified against the golden ISS@.";

  (* 5. a waveform of the firmware booting on the bespoke core: the
     run is Runner.run_gate's own (inputs, IRQ schedule, halt check);
     the VCD samples the loaded state and every committed cycle *)
  let buf = Buffer.create (1 lsl 16) in
  let vcd = ref None in
  let attach eng =
    let v = Vcd.create buf eng ~signals:core.Coredef.trace_signals in
    vcd := Some v;
    Vcd.sample v ~time:0;
    Engine.set_cycle_hook eng (Some (fun n -> Vcd.sample v ~time:n))
  in
  let o = Runner.run_gate ~attach ~netlist:reloaded ~core bench ~seed:7 in
  let cycles = o.Runner.g_cycles in
  Option.iter (fun v -> Vcd.finish v ~time:(cycles + 1)) !vcd;
  write "tea8.vcd" (Buffer.contents buf);
  Format.printf "firmware ran to completion in %d cycles on the handoff design@."
    cycles
