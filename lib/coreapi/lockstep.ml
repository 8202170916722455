module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Engine = Bespoke_sim.Engine

(* Core-generic lockstep comparison: run the gate-level system and the
   core's ISS golden model instruction by instruction, comparing every
   architectural register at every instruction boundary, the full data
   RAM and GPIO at the end, and cycle counts against the core's timing
   contract.

   [irq_pulse_at] lists retired-instruction counts: before each step
   both models see the line high iff the ISS's [retired] count is in
   the list.  That is the count {!Bespoke_core.Runner} keys pulses on
   at every level (ISS, gate level, packed lanes), so a co-simulation
   runs the same interrupt schedule as every other run of the input.
   A step that enters an interrupt retires nothing and does not
   advance the count. *)

type result = {
  instructions : int;
  cycles : int;
  gpio_final : int;
  outputs : int list;
  toggles : int array;
}

type divergence_info = {
  at_insn : int;
  at_pc : int;
  what : string;
  detail : string;
}

exception Divergence of string

(* internal: carries the structured record out of the comparators *)
exception Diverged of divergence_info

let fail ?(at_insn = -1) ?(at_pc = -1) ~what fmt =
  Printf.ksprintf
    (fun detail -> raise (Diverged { at_insn; at_pc; what; detail }))
    fmt

(* Every concrete bit of [got] agrees with [expected]; X bits pass.
   Used by the [x_dont_care] mode: a tailored design holds const-X
   ties on state the application provably never observes, so only the
   bits the gate level actually knows are required to match. *)
let concrete_bits_match expected (got : Bvec.t) =
  let ok = ref true in
  Array.iteri
    (fun i b ->
      match b with
      | Bit.Zero -> if (expected lsr i) land 1 <> 0 then ok := false
      | Bit.One -> if (expected lsr i) land 1 <> 1 then ok := false
      | Bit.X -> ())
    got;
  !ok

let compare_boundary ~x_dont_care ~insn_idx sys (iss : Coredef.iss) =
  let core = System.core sys in
  let hx = Coredef.hex_digits core in
  let at_pc = iss.Coredef.pc () in
  let check name expected (got : Bvec.t) =
    match Bvec.to_int got with
    | Some v when v = expected -> ()
    | Some v ->
      fail ~at_insn:insn_idx ~at_pc ~what:name
        "insn %d: %s mismatch: ISS %0*x, CPU %0*x (iss pc %0*x)" insn_idx name
        hx expected hx v hx at_pc
    | None when x_dont_care && concrete_bits_match expected got -> ()
    | None ->
      fail ~at_insn:insn_idx ~at_pc ~what:name
        "insn %d: %s is unknown in CPU: %s (ISS %0*x)" insn_idx name
        (Bvec.to_string got) hx expected
  in
  List.iter
    (fun r ->
      check (core.Coredef.reg_name r) (iss.Coredef.reg r) (System.reg sys r))
    core.Coredef.arch_regs;
  (* Cycle agreement: the CPU spends extra cycles in its reset state. *)
  let cpu_cycles = System.cycles sys in
  let iss_cycles = iss.Coredef.cycles () in
  if cpu_cycles <> iss_cycles + core.Coredef.reset_extra_cycles then
    fail ~at_insn:insn_idx ~at_pc ~what:"cycles"
      "insn %d (pc %0*x): cycle mismatch: ISS %d (+%d reset), CPU %d" insn_idx
      hx at_pc iss_cycles core.Coredef.reset_extra_cycles cpu_cycles

let compare_final ~x_dont_care ~insn_idx sys (iss : Coredef.iss) =
  let core = System.core sys in
  let hx = Coredef.hex_digits core in
  let at_pc = iss.Coredef.pc () in
  (* data RAM *)
  for w = 0 to core.Coredef.ram_words - 1 do
    let addr = core.Coredef.ram_base + (w lsl core.Coredef.addr_shift) in
    let cpu_v = System.read_ram_word sys addr in
    let iss_v = iss.Coredef.read_ram_word addr in
    let what = Printf.sprintf "ram[%04x]" addr in
    match Bvec.to_int cpu_v with
    | Some v when v = iss_v -> ()
    | Some v ->
      fail ~at_insn:insn_idx ~at_pc ~what "ram[%04x]: ISS %0*x, CPU %0*x" addr
        hx iss_v hx v
    | None when x_dont_care && concrete_bits_match iss_v cpu_v -> ()
    | None ->
      fail ~at_insn:insn_idx ~at_pc ~what "ram[%04x]: unknown in CPU (%s)" addr
        (Bvec.to_string cpu_v)
  done;
  let gpio = System.gpio_out sys in
  match Bvec.to_int gpio with
  | Some v when v = iss.Coredef.gpio_out () -> ()
  | Some v ->
    fail ~at_insn:insn_idx ~at_pc ~what:"gpio_out"
      "gpio_out: ISS %0*x, CPU %0*x" hx
      (iss.Coredef.gpio_out ())
      hx v
  | None when x_dont_care && concrete_bits_match (iss.Coredef.gpio_out ()) gpio
    -> ()
  | None ->
    fail ~at_insn:insn_idx ~at_pc ~what:"gpio_out" "gpio_out unknown in CPU"

let run_result ?mode ?netlist ?(gpio_in = 0) ?(ram_writes = [])
    ?(irq_pulse_at = []) ?(max_insns = 200_000) ?(x_dont_care = false) ~core
    (image : Coredef.image) =
  try
    let iss = image.Coredef.mk_iss () in
    iss.Coredef.reset ();
    iss.Coredef.set_gpio_in gpio_in;
    List.iter (fun (a, v) -> iss.Coredef.write_ram_word a v) ram_writes;
    let sys = System.create ?mode ?netlist ~core image in
    System.reset sys;
    System.set_gpio_in_int sys gpio_in;
    List.iter (fun (a, v) -> System.load_ram_word sys a v) ram_writes;
    (* consume the reset cycles so both models sit at the first
       instruction boundary *)
    (match
       System.run_to_boundary
         ~max_cycles:(core.Coredef.reset_extra_cycles + 3)
         sys
     with
    | `Fetch -> ()
    | `Halted | `Unknown -> fail ~what:"reset" "did not reach the first fetch");
    let insn_idx = ref 0 in
    let finished = ref false in
    while not !finished do
      if !insn_idx > max_insns then
        fail ~at_insn:!insn_idx ~what:"limit" "instruction limit exceeded";
      let line = List.mem (iss.Coredef.retired ()) irq_pulse_at in
      iss.Coredef.set_irq_line line;
      System.set_irq sys (Bit.of_bool line);
      (* Advance the CPU to its next instruction boundary (or halt). *)
      (match System.run_to_boundary ~max_cycles:100 sys with
      | `Fetch | `Halted -> ()
      | `Unknown ->
        fail ~at_insn:!insn_idx
          ~at_pc:(iss.Coredef.pc ())
          ~what:"control" "CPU control state became unknown");
      (* Advance the ISS to match: one instruction, or one interrupt
         entry (which the CPU's IRQ sequence mirrors cycle for cycle). *)
      if System.halted sys then begin
        iss.Coredef.step ();  (* the halting instruction *)
        if not (iss.Coredef.halted ()) then
          fail ~at_insn:!insn_idx
            ~at_pc:(iss.Coredef.pc ())
            ~what:"halt" "CPU halted but ISS did not";
        compare_final ~x_dont_care ~insn_idx:!insn_idx sys iss;
        finished := true
      end
      else begin
        iss.Coredef.step ();
        incr insn_idx;
        if iss.Coredef.halted () then
          fail ~at_insn:!insn_idx
            ~at_pc:(iss.Coredef.pc ())
            ~what:"halt" "ISS halted but CPU did not"
        else compare_boundary ~x_dont_care ~insn_idx:!insn_idx sys iss
      end
    done;
    Ok
      {
        instructions = iss.Coredef.retired ();
        cycles = System.cycles sys;
        gpio_final = iss.Coredef.gpio_out ();
        outputs = List.map snd (iss.Coredef.output_trace ());
        toggles = Engine.toggle_counts (System.engine sys);
      }
  with Diverged info -> Error info

let run ?mode ?netlist ?gpio_in ?ram_writes ?irq_pulse_at ?max_insns
    ?x_dont_care ~core image =
  match
    run_result ?mode ?netlist ?gpio_in ?ram_writes ?irq_pulse_at ?max_insns
      ?x_dont_care ~core image
  with
  | Ok r -> r
  | Error info -> raise (Divergence info.detail)
