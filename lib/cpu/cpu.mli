(** Gate-level MSP430-class microcontroller generator.

    Produces the full-chip netlist the bespoke flow prunes: a
    multi-cycle 16-bit core implementing the complete ISA of
    {!Bespoke_isa.Isa} plus the peripheral file of
    {!Bespoke_isa.Memmap} (GPIO, halt port, clock module, watchdog,
    debug block, hardware multiplier, single external IRQ).

    The cycle-by-cycle behaviour is the contract documented in
    {!Bespoke_isa.Timing}; the lockstep tests check it against the
    instruction-set simulator.

    {2 Ports}

    Inputs: [pmem_rdata] (16), [dmem_rdata] (16), [gpio_in] (16),
    [irq] (1).

    Outputs: [pmem_addr] (16), [dmem_addr] (16), [dmem_wdata] (16),
    [dmem_wen] (1), [dmem_ben] (2), [dmem_ren] (1), [gpio_out] (16),
    [halt] (1).

    [pmem_addr] carries instruction fetches {e and} data accesses that
    decode into ROM (constant data); [dmem_*] carries RAM traffic
    only.  Peripheral-file traffic never leaves the netlist.  All
    address/write outputs depend only on register outputs, so a
    harness can evaluate them before supplying read data.

    {2 Analysis hooks (named nets)}

    ["pc"], ["state"] (4), ["fetching"] (1: this cycle is an
    instruction fetch with no pending IRQ), ["irq_taken"] (1),
    ["branch_taken"] (1: valid during EXEC of a jump),
    ["branch_target"] (16), ["branch_fallthrough"] (16),
    ["pc_next_seq"] (16: the PC value an instruction boundary will see
    next), ["halted"] (1). *)

val build : unit -> Bespoke_netlist.Netlist.t
