(* Exhaustive instruction matrix: every two-operand opcode crossed
   with every source addressing mode, destination mode and operand
   size, plus every one-operand opcode across its modes — each cell a
   small program run in full gate-vs-ISS lockstep (registers, RAM,
   cycles).  This pins down the entire ISA surface, not just the paths
   the benchmarks happen to take. *)

module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_coreapi.Lockstep
module Runner = Bespoke_core.Runner
module Msp430 = Bespoke_cpu.Msp430
let core = Msp430.core

let two_ops =
  [ "mov"; "add"; "addc"; "subc"; "sub"; "cmp"; "dadd"; "bit"; "bic"; "bis";
    "xor"; "and" ]

(* source operand spellings; r7 holds a scratch pointer *)
let src_modes =
  [
    ("reg", "r5");
    ("imm-cg", "#4");
    ("imm-long", "#0x1b7");
    ("abs", "&0x0302");
    ("idx", "2(r7)");
    ("ind", "@r7");
    ("autoinc", "@r7+");
  ]

let dst_modes = [ ("reg", "r6"); ("abs", "&0x0304"); ("idx", "4(r7)") ]
let sizes = [ ""; ".b" ]

let program ~op ~src ~dst ~size =
  Printf.sprintf
    {|
start:  mov #0x0400, sp
        mov #0x0300, r7
        mov #0x5a17, &0x0300
        mov #0xc3f0, &0x0302
        mov #0x0f69, &0x0304
        mov #0x8e21, r5
        mov #0x1765, r6
        setc
        %s%s %s, %s
        mov r6, &0x0380
        mov sr, &0x0382
        halt
|}
    op size src dst

let one_op_program ~op ~operand ~size =
  Printf.sprintf
    {|
start:  mov #0x0400, sp
        mov #0x0300, r7
        mov #0x8e25, &0x0300
        mov #0x8e25, r5
        setc
        %s%s %s
        mov r5, &0x0380
        mov sr, &0x0382
        halt
|}
    op size operand

let lockstep_src src =
  let img = Asm.assemble src in
  ignore (Lockstep.run ~netlist:(Runner.shared_netlist core)
    ~core (Msp430.coreimage img))

let test_two_op_matrix () =
  List.iter
    (fun op ->
      List.iter
        (fun (sname, src) ->
          List.iter
            (fun (dname, dst) ->
              List.iter
                (fun size ->
                  try lockstep_src (program ~op ~src ~dst ~size)
                  with
                  | Lockstep.Divergence m ->
                    Alcotest.failf "%s%s %s->%s: %s" op size sname dname m
                  | Asm.Error { message; _ } ->
                    Alcotest.failf "%s%s %s->%s does not assemble: %s" op size
                      sname dname message)
                sizes)
            dst_modes)
        src_modes)
    two_ops

let test_one_op_matrix () =
  let cases =
    [
      ("rrc", [ "r5"; "&0x0300"; "@r7"; "2(r7)" ], sizes);
      ("rra", [ "r5"; "&0x0300"; "@r7" ], sizes);
      ("swpb", [ "r5"; "&0x0300" ], [ "" ]);
      ("sxt", [ "r5"; "&0x0300" ], [ "" ]);
      ("push", [ "r5"; "#0x44"; "&0x0300"; "@r7+" ], [ "" ]);
    ]
  in
  List.iter
    (fun (op, operands, szs) ->
      List.iter
        (fun operand ->
          List.iter
            (fun size ->
              try lockstep_src (one_op_program ~op ~operand ~size)
              with
              | Lockstep.Divergence m ->
                Alcotest.failf "%s%s %s: %s" op size operand m
              | Asm.Error { message; _ } ->
                Alcotest.failf "%s%s %s does not assemble: %s" op size operand
                  message)
            szs)
        operands)
    cases

let test_jump_matrix () =
  (* every condition, taken and not taken, driven by real flag state *)
  let setups =
    [
      ("zset", "mov #1, r5\n        dec r5");  (* Z=1 C=1? dec sets flags *)
      ("zclr", "mov #2, r5\n        dec r5");
      ("cset", "setc");
      ("cclr", "clrc");
      ("nset", "mov #0x8000, r5\n        tst r5");
      ("nclr", "mov #1, r5\n        tst r5");
      ("vset", "mov #0x7fff, r5\n        inc r5");
    ]
  in
  let conds = [ "jz"; "jnz"; "jc"; "jnc"; "jn"; "jge"; "jl"; "jmp" ] in
  List.iter
    (fun (sname, setup) ->
      List.iter
        (fun cond ->
          let src =
            Printf.sprintf
              {|
start:  mov #0x0400, sp
        %s
        %s taken
        mov #1, &0x0380
        halt
taken:  mov #2, &0x0380
        halt
|}
              setup cond
          in
          try lockstep_src src
          with Lockstep.Divergence m ->
            Alcotest.failf "%s after %s: %s" cond sname m)
        conds)
    setups

let () =
  Alcotest.run "bespoke_isa_matrix"
    [
      ( "matrix",
        [
          Alcotest.test_case "two-op x modes x sizes (504 programs)" `Slow
            test_two_op_matrix;
          Alcotest.test_case "one-op x modes" `Slow test_one_op_matrix;
          Alcotest.test_case "jumps x flag states" `Slow test_jump_matrix;
        ] );
    ]
