module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Asm = Bespoke_isa.Asm
module Isa = Bespoke_isa.Isa
module Memmap = Bespoke_isa.Memmap
module Cpu = Bespoke_cpu.Cpu
module System = Bespoke_coreapi.System
module Lockstep = Bespoke_coreapi.Lockstep
module Msp430 = Bespoke_cpu.Msp430

let core = Msp430.core

(* Building the netlist is expensive; share one across tests. *)
let the_netlist = lazy (Cpu.build ())

let lockstep ?gpio_in ?irq_pulse_at src =
  Lockstep.run ~netlist:(Lazy.force the_netlist) ?gpio_in ?irq_pulse_at
    ~core (Msp430.coreimage (Asm.assemble src))

let test_netlist_sanity () =
  let net = Lazy.force the_netlist in
  Netlist.validate net;
  ignore (Netlist.levelize net);
  Alcotest.(check bool) "has gates" true (Netlist.num_gates net > 2000);
  Alcotest.(check bool) "has dffs" true (Netlist.num_dffs net > 300);
  let mods = Netlist.modules net in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " present") true (List.mem m mods))
    [
      "frontend"; "execution"; "register_file"; "mem_backbone"; "sfr";
      "gpio"; "clock_module"; "watchdog"; "dbg"; "multiplier";
    ]

let test_lockstep_arith () =
  let r =
    lockstep
      {|
start:  mov #0x0280, sp
        mov #21, r4
        add r4, r4
        mov #100, r5
        sub #58, r5
        xor r4, r5
        and #0x00f0, r5
        bis #0x0f00, r5
        bic #0x0100, r5
        mov r5, &0x0200
        halt
|}
  in
  Alcotest.(check bool) "ran" true (r.Lockstep.instructions > 5)

(* @rn is not a destination mode in MSP430; the assembler must reject it. *)
let test_asm_rejects_ind_dst () =
  match Asm.assemble "start: mov #1, @r4\n halt\n" with
  | exception Asm.Error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_lockstep_memory_modes () =
  let r =
    lockstep
      {|
        .equ buf, 0x0240
start:  mov #0x0280, sp
        mov #buf, r4
        mov #0x1234, 0(r4)   ; indexed write
        mov @r4, r5          ; indirect read
        mov #buf, r6
        mov @r6+, r7         ; autoincrement
        mov 0xfffe(r6), r8   ; indexed with negative offset (buf again)
        mov &buf, r9         ; absolute read
        add #1, &buf         ; rmw absolute
        mov.b @r4, r10       ; byte read low
        mov.b 1(r4), r11     ; byte read high
        mov.b r10, 2(r4)     ; byte write
        halt
|}
  in
  Alcotest.(check bool) "ran" true (r.Lockstep.instructions > 10)

let test_lockstep_flow () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #5, r4
        clr r5
loop:   add r4, r5
        dec r4
        jnz loop
        call #sub1
        push #0x55aa
        pop r7
        cmp #0x55aa, r7
        jne bad
        mov r5, &0x0200
        halt
bad:    mov #0xdead, &0x0202
        halt
sub1:   inc r6
        ret
|})

let test_lockstep_all_two_ops () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #0x1357, r4
        mov #0x0246, r5
        add r4, r5
        addc r4, r5
        sub r4, r5
        subc r4, r5
        cmp r4, r5
        dadd #0x0125, r4
        bit #0x0f0f, r5
        bic #0x00ff, r5
        bis #0x8000, r5
        xor r4, r5
        and #0x7fff, r5
        mov r5, &0x0200
        mov r4, &0x0202
        halt
|})

let test_lockstep_one_ops () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #0x8001, r4
        rra r4
        rrc r4
        swpb r4
        sxt r4
        mov #0xff, r5
        rra.b r5
        rrc.b r5
        mov r4, &0x0200
        mov r5, &0x0202
        halt
|})

let test_lockstep_byte_ops () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #0x12ff, r4
        add.b #1, r4         ; zero-extends into register
        mov #0x0280, r6
        mov #0xabcd, 0(r6)
        add.b #0x11, 0(r6)   ; memory byte rmw (low lane)
        add.b #0x11, 1(r6)   ; memory byte rmw (high lane)
        cmp.b #0xde, 1(r6)
        jne bad
        mov #1, &0x0200
        halt
bad:    mov #2, &0x0200
        halt
|})

let test_lockstep_jumps () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #0x7fff, r4
        add #1, r4           ; overflow: V set, N set
        jn n_ok
        jmp bad
n_ok:   jge bad              ; N<>V -> JGE false
        jl l_ok
        jmp bad
l_ok:   clrc
        jnc c_ok
        jmp bad
c_ok:   setc
        jc done
        jmp bad
bad:    mov #0xdead, &0x0200
done:   halt
|})

let test_lockstep_sr_dst () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #0x0007, sr      ; write flags directly
        jnc bad
        jne bad
        mov r2, r4           ; read SR
        mov r4, &0x0200
        halt
bad:    mov #0xdead, &0x0200
        halt
|})

let test_lockstep_cg_constants () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        clr r4
        add #1, r4
        add #2, r4
        add #4, r4
        add #8, r4
        add #0xffff, r4      ; -1
        mov #0, r5
        mov r4, &0x0200
        halt
|})

let test_lockstep_peripherals () =
  let r =
    lockstep ~gpio_in:0x00ff
      (Printf.sprintf
         {|
start:  mov #0x0280, sp
        mov &0x%04x, r4      ; gpio in
        mov r4, &0x%04x      ; gpio out
        mov #1234, &0x%04x   ; mpy op1
        mov #99, &0x%04x     ; op2 trigger
        mov &0x%04x, r5      ; reslo
        mov &0x%04x, r6      ; reshi
        mov &0x%04x, r7      ; dbg cycle counter low
        mov &0x%04x, r8      ; clk counter
        mov #0x00, &0x%04x   ; start watchdog (clear hold)
        nop
        nop
        mov &0x%04x, r9      ; wdt counter
        mov #0x80, &0x%04x   ; stop watchdog
        halt
|}
         Memmap.gpio_in Memmap.gpio_out Memmap.mpy_op1 Memmap.mpy_op2
         Memmap.mpy_reslo Memmap.mpy_reshi Memmap.dbg_cyc_lo Memmap.clk_cnt
         Memmap.wdt_ctl Memmap.wdt_cnt Memmap.wdt_ctl)
  in
  Alcotest.(check int) "gpio echoed" 0x00ff r.Lockstep.gpio_final

let test_lockstep_dbg_block () =
  ignore
    (lockstep
       (Printf.sprintf
          {|
start:  mov #0x0280, sp
        mov #brkpt, &0x%04x  ; breakpoint address
        mov #3, &0x%04x      ; enable trace + brk
        nop
brkpt:  nop
        mov &0x%04x, r4      ; ctl: bit15 should be set
        mov &0x%04x, r5      ; last traced pc
        mov r4, &0x0200
        halt
|}
          Memmap.dbg_brk Memmap.dbg_ctl Memmap.dbg_ctl Memmap.dbg_pc))

let test_lockstep_irq () =
  let r =
    lockstep ~irq_pulse_at:[ 6 ]
      {|
        .irq handler
start:  mov #0x0280, sp
        mov #1, &0x0000      ; IE
        eint
        clr r4
wait:   inc r4
        cmp #200, r4
        jne wait
        halt
handler: mov r4, &0x0200
        reti
|}
  in
  Alcotest.(check bool) "ran" true (r.Lockstep.instructions > 10)

let test_lockstep_nested_calls () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #3, r4
        call #fib            ; fib(3) via naive recursion
        mov r5, &0x0200
        halt
fib:    cmp #2, r4
        jge rec
        mov r4, r5
        ret
rec:    push r4
        dec r4
        call #fib
        pop r4
        push r5
        sub #2, r4
        call #fib
        pop r6
        add r6, r5
        ret
|})

let test_lockstep_call_modes () =
  ignore
    (lockstep
       {|
start:  mov #0x0280, sp
        mov #target, r4
        call r4              ; register target
        mov #tab, r5
        call @r5             ; indirect target
        call #target         ; immediate target
        halt
tab:    .word target
target: inc r6
        ret
|})

(* X-propagation: with unknown GPIO input, data-dependent registers
   become X but control flow stays known. *)
let test_symbolic_gpio () =
  let img =
    Asm.assemble
      {|
start:  mov #0x0280, sp
        mov &0x0010, r4      ; unknown input
        add #1, r4
        mov r4, &0x0200
        halt
|}
  in
  let sys =
    System.create ~netlist:(Lazy.force the_netlist) ~core (Msp430.coreimage img)
  in
  System.reset sys;
  System.set_gpio_in_x sys;
  System.set_irq sys Bit.Zero;
  let cycles = System.run ~max_cycles:200 sys in
  Alcotest.(check bool) "finished" true (cycles > 0);
  let v = System.read_ram_word sys 0x0200 in
  Alcotest.(check bool) "result unknown" false (Bvec.is_known v);
  Alcotest.(check bool) "halted" true (System.halted sys)

let test_symbolic_branch_hooks () =
  (* an input-dependent branch makes "fetching" eventually X-free but
     branch_taken X at the jump's EXEC cycle *)
  let img =
    Asm.assemble
      {|
start:  mov #0x0280, sp
        mov &0x0010, r4
        tst r4
        jnz nz
        mov #1, &0x0200
        halt
nz:     mov #2, &0x0200
        halt
|}
  in
  let sys =
    System.create ~netlist:(Lazy.force the_netlist) ~core (Msp430.coreimage img)
  in
  System.reset sys;
  System.set_gpio_in_x sys;
  System.set_irq sys Bit.Zero;
  (* run until the jump's EXEC cycle: branch_taken must be X there *)
  let saw_x_branch = ref false in
  (try
     for _ = 1 to 60 do
       System.step_cycle sys;
       match (System.read_hook sys "exec_jump").(0) with
       | Bit.One | Bit.X ->
         if not (Bvec.is_known [| (System.read_hook sys "branch_taken").(0) |])
         then begin
           saw_x_branch := true;
           raise Exit
         end
       | Bit.Zero -> ()
     done
   with Exit -> ());
  Alcotest.(check bool) "saw X branch decision" true !saw_x_branch;
  Alcotest.(check bool) "target known" true
    (Bvec.is_known (System.read_hook sys "branch_target"));
  Alcotest.(check bool) "fallthrough known" true
    (Bvec.is_known (System.read_hook sys "branch_fallthrough"))

let test_snapshot_restore () =
  let img =
    Asm.assemble
      {|
start:  mov #0x0280, sp
        clr r4
loop:   inc r4
        cmp #10, r4
        jne loop
        mov r4, &0x0200
        halt
|}
  in
  let sys =
    System.create ~netlist:(Lazy.force the_netlist) ~core (Msp430.coreimage img)
  in
  System.reset sys;
  System.set_irq sys Bit.Zero;
  System.set_gpio_in_int sys 0;
  for _ = 1 to 20 do
    System.step_cycle sys
  done;
  let snap = System.snapshot sys in
  let pc1 = System.pc sys in
  for _ = 1 to 15 do
    System.step_cycle sys
  done;
  System.restore sys snap;
  Alcotest.(check string) "pc restored" (Bvec.to_string pc1)
    (Bvec.to_string (System.pc sys));
  (* and the run still completes correctly *)
  ignore (System.run ~max_cycles:2000 sys);
  Alcotest.(check (option int)) "result" (Some 10)
    (Bvec.to_int (System.read_ram_word sys 0x0200))

let () =
  Alcotest.run "bespoke_cpu"
    [
      ( "netlist",
        [ Alcotest.test_case "sanity" `Quick test_netlist_sanity ] );
      ( "lockstep",
        [
          Alcotest.test_case "arith" `Quick test_lockstep_arith;
          Alcotest.test_case "assembler rejects @rn dst" `Quick
            test_asm_rejects_ind_dst;
          Alcotest.test_case "memory modes" `Quick test_lockstep_memory_modes;
          Alcotest.test_case "control flow" `Quick test_lockstep_flow;
          Alcotest.test_case "all two-ops" `Quick test_lockstep_all_two_ops;
          Alcotest.test_case "one-ops" `Quick test_lockstep_one_ops;
          Alcotest.test_case "byte ops" `Quick test_lockstep_byte_ops;
          Alcotest.test_case "jumps/flags" `Quick test_lockstep_jumps;
          Alcotest.test_case "sr as dst" `Quick test_lockstep_sr_dst;
          Alcotest.test_case "cg constants" `Quick test_lockstep_cg_constants;
          Alcotest.test_case "peripherals" `Quick test_lockstep_peripherals;
          Alcotest.test_case "debug block" `Quick test_lockstep_dbg_block;
          Alcotest.test_case "irq" `Quick test_lockstep_irq;
          Alcotest.test_case "recursion" `Quick test_lockstep_nested_calls;
          Alcotest.test_case "call modes" `Quick test_lockstep_call_modes;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "x data propagation" `Quick test_symbolic_gpio;
          Alcotest.test_case "x branch hooks" `Quick test_symbolic_branch_hooks;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        ] );
    ]
