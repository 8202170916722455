(* Quickstart: tailor a bespoke processor to a tiny program you write
   yourself, then prove it still runs the program.

   Run with: dune exec examples/quickstart.exe *)

module Asm = Bespoke_isa.Asm
module Cpu = Bespoke_cpu.Cpu
module System = Bespoke_coreapi.System
module Lockstep = Bespoke_coreapi.Lockstep
module Activity = Bespoke_analysis.Activity
module Cut = Bespoke_core.Cut
module Netlist = Bespoke_netlist.Netlist
module Report = Bespoke_power.Report
module Msp430 = Bespoke_cpu.Msp430

let core = Msp430.core

let program =
  {|
; Average the GPIO input with a rolling accumulator, eight rounds.
start:  mov #0x0280, sp
        clr r5
        mov #8, r6
loop:   mov &0x0010, r4      ; read the input port
        add r4, r5
        rra r5               ; leaky average
        dec r6
        jnz loop
        mov r5, &0x0012      ; drive the output port
        halt
|}

let () =
  (* 1. assemble the application *)
  let image = Asm.assemble program in
  (* 2. build the general-purpose microcontroller netlist *)
  let sys = System.create ~core (Msp430.coreimage image) in
  let net = System.netlist sys in
  Format.printf "general-purpose core: %a@." Netlist.pp_summary net;
  (* 3. input-independent gate activity analysis (the GPIO port is
     unknown during analysis, so the result holds for every input) *)
  let report = Activity.analyze sys in
  Format.printf "analysis: %d paths explored, %d gates exercisable@."
    report.Activity.paths
    (Activity.exercisable_count report);
  (* 4. cut & stitch -> the bespoke processor *)
  let bespoke, stats =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  Format.printf "bespoke: %a@." Cut.pp_stats stats;
  Format.printf "area: %.0f -> %.0f um2@."
    (Report.area_um2 net) (Report.area_um2 bespoke);
  (* 5. the unmodified binary still runs, for any input: spot-check a
     few against the golden instruction-set simulator *)
  List.iter
    (fun gpio_in ->
      let r =
        Lockstep.run ~netlist:bespoke ~gpio_in ~core (Msp430.coreimage image)
      in
      Format.printf "gpio_in=%5d -> output %d (verified, %d cycles)@."
        gpio_in r.Lockstep.gpio_final r.Lockstep.cycles)
    [ 0; 100; 9999; 65535 ]
