module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Asm = Bespoke_isa.Asm
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Memory = Bespoke_sim.Memory
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module Lockstep = Bespoke_coreapi.Lockstep
module Msp430 = Bespoke_cpu.Msp430

let core = Msp430.core

let the_netlist = lazy (Bespoke_cpu.Cpu.build ())

let analyze ?(ram_x = []) src =
  let img = Asm.assemble src in
  let sys =
    System.create ~netlist:(Lazy.force the_netlist) ~core (Msp430.coreimage img)
  in
  let config =
    { Activity.default_config with Activity.ram_x_ranges = ram_x }
  in
  (Activity.analyze ~config sys, sys)

let count_exercisable r = Activity.exercisable_count r

let test_straightline () =
  let r, _ =
    analyze {|
start:  mov #0x0280, sp
        mov #5, r4
        add #3, r4
        mov r4, &0x0200
        halt
|}
  in
  Alcotest.(check int) "single path" 1 r.Activity.paths;
  Alcotest.(check int) "halted" 1 r.Activity.halted_paths;
  Alcotest.(check bool) "some gates exercised" true (count_exercisable r > 500)

let test_input_dependent_branch_forks () =
  let r, _ =
    analyze {|
start:  mov #0x0280, sp
        mov &0x0010, r4
        tst r4
        jz zero
        mov #1, &0x0200
        halt
zero:   mov #2, &0x0200
        halt
|}
  in
  Alcotest.(check bool) "forked" true (r.Activity.paths >= 2);
  Alcotest.(check int) "both paths halt" 2 r.Activity.halted_paths

let test_concrete_branch_no_fork () =
  let r, _ =
    analyze {|
start:  mov #0x0280, sp
        mov #1, r4
        tst r4
        jz never
        mov #1, &0x0200
        halt
never:  mov #2, &0x0200
        halt
|}
  in
  Alcotest.(check int) "no fork on a concrete condition" 1 r.Activity.paths

let test_infinite_loop_converges () =
  let r, _ = analyze "start: jmp start\n" in
  Alcotest.(check bool) "converged" true (r.Activity.paths < 5);
  Alcotest.(check int) "nothing halts" 0 r.Activity.halted_paths

let test_input_loop_converges () =
  (* loop with an input-dependent trip count must converge via merging *)
  let r, _ =
    analyze {|
start:  mov #0x0280, sp
        mov &0x0010, r4
loop:   dec r4
        jnz loop
        halt
|}
  in
  Alcotest.(check bool) "converged" true (r.Activity.paths < 50);
  Alcotest.(check bool) "revisits handled" true
    (r.Activity.merges + r.Activity.prunes > 0);
  Alcotest.(check bool) "halting path found" true (r.Activity.halted_paths > 0)

(* The central soundness property: any gate the analysis says can
   never toggle must indeed not toggle in concrete executions with
   arbitrary inputs. *)
let soundness_program =
  {|
start:  mov #0x0280, sp
        mov &0x0300, r4
        and #0x0007, r4
        clr r5
loop:   add r4, r5
        dec r4
        jge loop
        mov r5, &0x0380
        mov r5, &0x0012
        halt
|}

let soundness_report =
  lazy
    (let img = Asm.assemble soundness_program in
     let sys =
       System.create ~netlist:(Lazy.force the_netlist)
         ~core (Msp430.coreimage img)
     in
     let config =
       {
         Activity.default_config with
         Activity.ram_x_ranges = [ (0x0300, 0x0301) ];
       }
     in
     Activity.analyze ~config sys)

let test_soundness_vs_concrete =
  QCheck.Test.make ~name:"untoggled set holds for every concrete input"
    ~count:25
    QCheck.(int_bound 0xffff)
    (fun input ->
      let img = Asm.assemble soundness_program in
      let r = Lazy.force soundness_report in
      (* concrete run with this input *)
      let sys2 =
        System.create ~netlist:(Lazy.force the_netlist)
          ~core (Msp430.coreimage img)
      in
      System.reset sys2;
      Memory.load_int (System.ram sys2) ((0x0300 lsr 1) land 0x7ff) input;
      System.set_gpio_in_int sys2 0;
      System.set_irq sys2 Bit.Zero;
      ignore (System.run ~max_cycles:10_000 sys2);
      let toggles = Engine.toggle_counts (System.engine sys2) in
      let ok = ref true in
      Array.iteri
        (fun id c ->
          if c > 0 && not r.Activity.possibly_toggled.(id) then ok := false)
        toggles;
      !ok)

let test_constants_match_reset () =
  let r, sys = analyze "start: mov #0x0280, sp\n halt\n" in
  (* every gate marked untoggled must still hold its recorded constant
     after the run *)
  let eng = System.engine sys in
  let final = Engine.snapshot_values eng in
  let ok = ref true in
  Array.iteri
    (fun id v ->
      if not r.Activity.possibly_toggled.(id) then
        if not (Bit.equal v r.Activity.constant_values.(id)) then ok := false)
    final;
  Alcotest.(check bool) "constants stable" true !ok

let test_gpio_x_marks_input_cone () =
  let with_input, _ =
    analyze {|
start:  mov #0x0280, sp
        mov &0x0010, r4
        mov r4, &0x0380
        halt
|}
  in
  let without, _ =
    analyze {|
start:  mov #0x0280, sp
        mov #0, r4
        mov r4, &0x0380
        halt
|}
  in
  Alcotest.(check bool) "reading the port exercises more gates" true
    (count_exercisable with_input > count_exercisable without)

let test_shadow_detects_wrong_cut () =
  (* cut a gate that IS exercisable and let the shadow comparison (or
     the simulation itself) catch the divergence *)
  let src = {|
start:  mov #0x0280, sp
        mov &0x0010, r4
        add #1, r4
        mov r4, &0x0380
        halt
|} in
  let img = Asm.assemble src in
  let sys =
    System.create ~netlist:(Lazy.force the_netlist) ~core (Msp430.coreimage img)
  in
  let r = Activity.analyze sys in
  let net = Lazy.force the_netlist in
  (* sabotage: also cut 40 gates that provably toggle in a concrete
     run of this very program *)
  let concrete = System.create ~netlist:net ~core (Msp430.coreimage img) in
  System.reset concrete;
  System.set_gpio_in_int concrete 0x1234;
  System.set_irq concrete Bit.Zero;
  ignore (System.run ~max_cycles:10_000 concrete);
  let live_toggles = Engine.toggle_counts (System.engine concrete) in
  let sabotaged = Array.copy r.Activity.possibly_toggled in
  let cut = ref 0 in
  Array.iteri
    (fun id (g : Bespoke_netlist.Gate.t) ->
      if
        !cut < 40 && sabotaged.(id) && live_toggles.(id) > 2
        && (not (Bespoke_netlist.Gate.is_source g))
        && Netlist.module_of net id = "execution"
      then begin
        sabotaged.(id) <- false;
        incr cut
      end)
    net.Netlist.gates;
  Alcotest.(check bool) "sabotage applied" true (!cut > 0);
  let bad, _ =
    Bespoke_core.Cut.tailor net ~possibly_toggled:sabotaged
      ~constants:r.Activity.constant_values
  in
  let caught =
    try
      let sh = System.create ~netlist:bad ~core (Msp430.coreimage img) in
      Activity.replay r sh;
      (* the shadow may pass if the sabotage fell on redundant gates;
         input-based checks are the backstop *)
      List.for_all
        (fun gpio ->
          let r1 =
            Lockstep.run ~netlist:net ~gpio_in:gpio ~core (Msp430.coreimage img)
          in
          let r2 =
            Lockstep.run ~netlist:bad ~gpio_in:gpio ~core (Msp430.coreimage img)
          in
          r1.Lockstep.gpio_final = r2.Lockstep.gpio_final)
        [ 1; 0x7fff; 0xffff ]
    with
    | Activity.Shadow_mismatch _ -> false
    | Activity.Analysis_error _ -> false
    | Lockstep.Divergence _ -> false
    | Failure _ -> false
  in
  Alcotest.(check bool) "sabotaged cut detected" false caught

(* --- the recorded schedule: replay catches a corrupted record ------- *)

let schedule_src =
  {|
start:  mov #0x0280, sp
        mov &0x0300, r4
        add #1, r4
        mov r4, &0x0380
        mov #0x1234, &0x0382
        halt
|}

(* The program's analysis (input word X) and its bespoke design. *)
let schedule_case =
  lazy
    (let r, _ = analyze ~ram_x:[ (0x0300, 0x0301) ] schedule_src in
     let bespoke, _ =
       Bespoke_core.Cut.tailor (Lazy.force the_netlist)
         ~possibly_toggled:r.Activity.possibly_toggled
         ~constants:r.Activity.constant_values
     in
     (r, bespoke))

let replay_message r bespoke =
  let sh =
    System.create ~netlist:bespoke ~core
      (Msp430.coreimage (Asm.assemble schedule_src))
  in
  match Activity.replay r sh with
  | () -> None
  | exception Activity.Shadow_mismatch m -> Some m

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_replay_clean () =
  let r, bespoke = Lazy.force schedule_case in
  Alcotest.(check (option string)) "bespoke design replays" None
    (replay_message r bespoke)

(* The first comparison point records every register, r0 (the PC, known
   at a boundary) first: flip one of its bits. *)
let test_replay_catches_register () =
  let r, bespoke = Lazy.force schedule_case in
  let sc = r.Activity.schedule in
  let regs = Array.copy sc.Activity.regs in
  Alcotest.(check int) "pc known" 0 (regs.(0) land regs.(1));
  regs.(0) <- regs.(0) lxor 2;
  regs.(1) <- regs.(1) lxor 2;
  let r' = { r with Activity.schedule = { sc with Activity.regs } } in
  match replay_message r' bespoke with
  | None -> Alcotest.fail "corrupted register record replayed clean"
  | Some m ->
    Alcotest.(check bool)
      ("boundary register mismatch: " ^ m)
      true
      (has_prefix ~prefix:"boundary: r0 differs: original " m)

(* The halted path's RAM record holds the written words; flip a bit of
   the fully known one. *)
let test_replay_catches_ram () =
  let r, bespoke = Lazy.force schedule_case in
  let sc = r.Activity.schedule in
  let ram = Array.copy sc.Activity.ram in
  let n = ram.(0) in
  let known =
    List.find
      (fun i -> ram.(i + 1) land ram.(i + 2) = 0)
      (List.init n (fun k -> 1 + (3 * k)))
  in
  ram.(known + 1) <- ram.(known + 1) lxor 1;
  ram.(known + 2) <- ram.(known + 2) lxor 1;
  let r' = { r with Activity.schedule = { sc with Activity.ram } } in
  Alcotest.(check (option string)) "RAM mismatch"
    (Some "halted path: data memory differs at path end")
    (replay_message r' bespoke)

let test_report_counters_consistent () =
  let r, _ =
    analyze ~ram_x:[ (0x0300, 0x0303) ]
      {|
start:  mov #0x0280, sp
        mov &0x0300, r4
        tst r4
        jz a
        mov #1, &0x0380
        halt
a:      mov &0x0302, r5
        tst r5
        jz b
        mov #2, &0x0380
        halt
b:      mov #3, &0x0380
        halt
|}
  in
  Alcotest.(check bool) "paths >= halted" true
    (r.Activity.paths >= r.Activity.halted_paths);
  Alcotest.(check int) "three outcomes" 3 r.Activity.halted_paths

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_analysis"
    [
      ( "exploration",
        [
          Alcotest.test_case "straight line" `Quick test_straightline;
          Alcotest.test_case "input branch forks" `Quick
            test_input_dependent_branch_forks;
          Alcotest.test_case "concrete branch doesn't fork" `Quick
            test_concrete_branch_no_fork;
          Alcotest.test_case "infinite loop converges" `Quick
            test_infinite_loop_converges;
          Alcotest.test_case "input loop converges" `Quick
            test_input_loop_converges;
          Alcotest.test_case "counters consistent" `Quick
            test_report_counters_consistent;
        ] );
      ( "soundness",
        [
          qt test_soundness_vs_concrete;
          Alcotest.test_case "constants match reset" `Quick
            test_constants_match_reset;
          Alcotest.test_case "gpio X exercises input cone" `Quick
            test_gpio_x_marks_input_cone;
          Alcotest.test_case "sabotaged cut is detected" `Slow
            test_shadow_detects_wrong_cut;
        ] );
      ( "replay",
        [
          Alcotest.test_case "bespoke design replays clean" `Quick
            test_replay_clean;
          Alcotest.test_case "corrupted register caught" `Quick
            test_replay_catches_register;
          Alcotest.test_case "corrupted halted-path RAM caught" `Quick
            test_replay_catches_ram;
        ] );
    ]
