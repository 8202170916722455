exception Bus_error of { addr : int; write : bool }

type t = {
  image : Asm.image;
  regs : int array;  (* 16 registers, 16-bit values *)
  ram : int array;  (* word-addressed *)
  rom : int array;
  (* peripherals *)
  mutable sfr_ie : int;
  mutable sfr_ifg : int;
  mutable gpio_in : int;
  mutable gpio_out : int;
  mutable clk_ctl : int;
  mutable clk_frozen : int;
  mutable clk_since : int;
  mutable wdt_ctl : int;
  mutable wdt_frozen : int;  (* counter value at the last control write *)
  mutable wdt_since : int;  (* cycle at which counting (re)started *)
  mutable dbg_ctl : int;
  mutable dbg_frozen : int;
  mutable dbg_since : int;
  mutable dbg_pc : int;
  mutable dbg_brk : int;
  mutable mpy_op1 : int;
  mutable mpy_mac : bool;
  mutable mpy_reslo : int;
  mutable mpy_reshi : int;
  (* execution state *)
  mutable halted : bool;
  mutable cycles : int;
  mutable retired : int;
  mutable irq_line : bool;
  mutable trace : (int * int) list;  (* gpio_out writes, newest first *)
}

let w16 v = v land 0xffff

let create image =
  {
    image;
    regs = Array.make 16 0;
    ram = Array.make Memmap.ram_words 0;
    rom = Asm.image_rom image;
    sfr_ie = 0;
    sfr_ifg = 0;
    gpio_in = 0;
    gpio_out = 0;
    clk_ctl = 0;
    clk_frozen = 0;
    clk_since = 0;
    wdt_ctl = 0x80;  (* watchdog held at reset *)
    wdt_frozen = 0;
    wdt_since = 0;
    dbg_ctl = 0;
    dbg_frozen = 0;
    dbg_since = 0;
    dbg_pc = 0;
    dbg_brk = 0;
    mpy_op1 = 0;
    mpy_mac = false;
    mpy_reslo = 0;
    mpy_reshi = 0;
    halted = false;
    cycles = 0;
    retired = 0;
    irq_line = false;
    trace = [];
  }

let reset t =
  Array.fill t.regs 0 16 0;
  Array.fill t.ram 0 Memmap.ram_words 0;
  t.sfr_ie <- 0;
  t.sfr_ifg <- 0;
  t.gpio_out <- 0;
  t.clk_ctl <- 0;
  t.clk_frozen <- 0;
  t.clk_since <- 0;
  t.wdt_ctl <- 0x80;
  t.wdt_frozen <- 0;
  t.wdt_since <- 0;
  t.dbg_ctl <- 0;
  t.dbg_frozen <- 0;
  t.dbg_since <- 0;
  t.dbg_pc <- 0;
  t.dbg_brk <- 0;
  t.mpy_op1 <- 0;
  t.mpy_mac <- false;
  t.mpy_reslo <- 0;
  t.mpy_reshi <- 0;
  t.halted <- false;
  t.cycles <- 0;
  t.retired <- 0;
  t.trace <- [];
  t.regs.(0) <- t.rom.((Memmap.reset_vector - Memmap.rom_base) / 2)

let reg t i = t.regs.(i)
let set_reg t i v = t.regs.(i) <- w16 v
let pc t = t.regs.(0)
let sr t = t.regs.(2)
let halted t = t.halted
let cycles t = t.cycles
let instructions_retired t = t.retired
let set_gpio_in t v = t.gpio_in <- w16 v
let gpio_out t = t.gpio_out
let output_trace t = List.rev t.trace
let set_irq_line t b = t.irq_line <- b

let wdt_running t = t.wdt_ctl land 0x80 = 0

let wdt_value t ~now =
  if wdt_running t then w16 (t.wdt_frozen + max 0 (now - t.wdt_since))
  else t.wdt_frozen

(* Gated free-running counters (clock module, debug cycle counter):
   value while running is frozen + (now - since). *)
let gated_value ~frozen ~since ~running ~now =
  if running then frozen + max 0 (now - since) else frozen

let clk_running t = t.clk_ctl land 4 <> 0
let dbg_counting t = t.dbg_ctl land 1 <> 0

let clk_value t ~now =
  gated_value ~frozen:t.clk_frozen ~since:t.clk_since ~running:(clk_running t)
    ~now
  land 0xFFFFF

let dbg_cyc_value t ~now =
  gated_value ~frozen:t.dbg_frozen ~since:t.dbg_since
    ~running:(dbg_counting t) ~now
  land 0xFFFFFFFF

(* Peripheral-file word read at an exact cycle [now]. *)
let periph_read t ~now addr =
  let m = addr land 0xfffe in
  if m = Memmap.sfr_ie then t.sfr_ie
  else if m = Memmap.sfr_ifg then t.sfr_ifg
  else if m = Memmap.gpio_in then t.gpio_in
  else if m = Memmap.gpio_out then t.gpio_out
  else if m = Memmap.sim_halt then 0
  else if m = Memmap.clk_ctl then t.clk_ctl
  else if m = Memmap.clk_cnt then
    (* the hardware divider counter is 20 bits wide *)
    w16 (clk_value t ~now lsr (t.clk_ctl land 3))
  else if m = Memmap.wdt_ctl then t.wdt_ctl
  else if m = Memmap.wdt_cnt then wdt_value t ~now
  else if m = Memmap.dbg_ctl then t.dbg_ctl
  else if m = Memmap.dbg_pc then t.dbg_pc
  else if m = Memmap.dbg_brk then t.dbg_brk
  else if m = Memmap.dbg_cyc_lo then w16 (dbg_cyc_value t ~now)
  else if m = Memmap.dbg_cyc_hi then w16 (dbg_cyc_value t ~now lsr 16)
  else if m = Memmap.mpy_op1 then t.mpy_op1
  else if m = Memmap.mpy_mac then t.mpy_op1
  else if m = Memmap.mpy_op2 then 0
  else if m = Memmap.mpy_reslo then t.mpy_reslo
  else if m = Memmap.mpy_reshi then t.mpy_reshi
  else raise (Bus_error { addr; write = false })

let periph_write t ~now addr v =
  let m = addr land 0xfffe in
  if m = Memmap.sfr_ie then t.sfr_ie <- v
  else if m = Memmap.sfr_ifg then t.sfr_ifg <- v
  else if m = Memmap.gpio_in then ()  (* input pins: writes ignored *)
  else if m = Memmap.gpio_out then begin
    t.gpio_out <- v;
    t.trace <- (t.retired, v) :: t.trace
  end
  else if m = Memmap.sim_halt then t.halted <- true
  else if m = Memmap.clk_ctl then begin
    (* gating change takes effect at the end of the write cycle; an
       already-running counter still ticks at that edge *)
    t.clk_frozen <-
      (clk_value t ~now + if clk_running t then 1 else 0) land 0xFFFFF;
    t.clk_since <- now + 1;
    t.clk_ctl <- v
  end
  else if m = Memmap.wdt_ctl then begin
    (* any control write clears the counter; the hardware counter is
       zero on the cycle after the write (cleared at the clock edge) *)
    t.wdt_frozen <- 0;
    t.wdt_since <- now + 1;
    t.wdt_ctl <- v
  end
  else if m = Memmap.wdt_cnt then ()
  else if m = Memmap.dbg_ctl then begin
    t.dbg_frozen <-
      (dbg_cyc_value t ~now + if dbg_counting t then 1 else 0)
      land 0xFFFFFFFF;
    t.dbg_since <- now + 1;
    t.dbg_ctl <- v
  end
  else if m = Memmap.dbg_pc then ()
  else if m = Memmap.dbg_brk then t.dbg_brk <- v
  else if m = Memmap.dbg_cyc_lo || m = Memmap.dbg_cyc_hi then ()
  else if m = Memmap.mpy_op1 then begin
    t.mpy_op1 <- v;
    t.mpy_mac <- false
  end
  else if m = Memmap.mpy_mac then begin
    t.mpy_op1 <- v;
    t.mpy_mac <- true
  end
  else if m = Memmap.mpy_op2 then begin
    let prod = t.mpy_op1 * v in
    let acc =
      if t.mpy_mac then (t.mpy_reshi lsl 16) lor t.mpy_reslo else 0
    in
    let total = (acc + prod) land 0xffffffff in
    t.mpy_reslo <- total land 0xffff;
    t.mpy_reshi <- (total lsr 16) land 0xffff
  end
  else if m = Memmap.mpy_reslo then t.mpy_reslo <- v
  else if m = Memmap.mpy_reshi then t.mpy_reshi <- v
  else raise (Bus_error { addr; write = true })

let bus_read_word t ~now addr =
  let a = addr land 0xfffe in
  if Memmap.in_ram a then t.ram.((a - Memmap.ram_base) / 2)
  else if Memmap.in_rom a then t.rom.((a - Memmap.rom_base) / 2)
  else if Memmap.in_periph a then periph_read t ~now a
  else raise (Bus_error { addr; write = false })

let bus_write_word t ~now addr v =
  let a = addr land 0xfffe in
  let v = w16 v in
  if Memmap.in_ram a then t.ram.((a - Memmap.ram_base) / 2) <- v
  else if Memmap.in_periph a then periph_write t ~now a v
  else raise (Bus_error { addr; write = true })

let bus_read t ~now ~size addr =
  let word = bus_read_word t ~now addr in
  match size with
  | Isa.Word -> word
  | Isa.Byte -> if addr land 1 = 1 then (word lsr 8) land 0xff else word land 0xff

let bus_write t ~now ~size addr v =
  match size with
  | Isa.Word -> bus_write_word t ~now addr v
  | Isa.Byte ->
    let old = bus_read_word t ~now addr in
    let v = v land 0xff in
    let merged =
      if addr land 1 = 1 then (v lsl 8) lor (old land 0x00ff)
      else (old land 0xff00) lor v
    in
    bus_write_word t ~now addr merged

let read_word t addr = bus_read_word t ~now:t.cycles addr
let read_ram_word t addr = t.ram.((addr land 0xfffe - Memmap.ram_base) / 2)
let write_ram_word t addr v = t.ram.((addr land 0xfffe - Memmap.ram_base) / 2) <- w16 v

(* ---------------- flags ---------------- *)

let get_flag t bit = (t.regs.(2) lsr bit) land 1 = 1

let set_flags t ~c ~z ~n ~v =
  let s = t.regs.(2) in
  let put b bit s = if b then s lor (1 lsl bit) else s land lnot (1 lsl bit) in
  t.regs.(2) <-
    w16 (put c Isa.flag_c (put z Isa.flag_z (put n Isa.flag_n (put v Isa.flag_v s))))

let msb_of size = match size with Isa.Word -> 0x8000 | Isa.Byte -> 0x80
let mask_of size = match size with Isa.Word -> 0xffff | Isa.Byte -> 0xff

(* ---------------- ALU ---------------- *)

let alu_add t ~size ~carry_in a b =
  let mask = mask_of size and msb = msb_of size in
  let cin = if carry_in then 1 else 0 in
  let full = (a land mask) + (b land mask) + cin in
  let r = full land mask in
  let c = full > mask in
  let v = a land msb = b land msb && r land msb <> a land msb in
  set_flags t ~c ~z:(r = 0) ~n:(r land msb <> 0) ~v;
  r

let alu_dadd t ~size a b =
  let digits = match size with Isa.Word -> 4 | Isa.Byte -> 2 in
  let carry = ref (if get_flag t Isa.flag_c then 1 else 0) in
  let r = ref 0 in
  for d = 0 to digits - 1 do
    let da = (a lsr (4 * d)) land 0xf and db = (b lsr (4 * d)) land 0xf in
    (* the decimal adjust adds 6 and keeps the low nibble, exactly as
       the gate-level digit adder does — the distinction only matters
       for non-BCD operand digits, where both models must still agree *)
    let s = da + db + !carry in
    let s, co = if s > 9 then ((s + 6) land 0xf, 1) else (s, 0) in
    carry := co;
    r := !r lor (s lsl (4 * d))
  done;
  let msb = msb_of size in
  set_flags t ~c:(!carry = 1) ~z:(!r = 0) ~n:(!r land msb <> 0) ~v:false;
  !r

let exec_two t ~size (op : Isa.two_op) ~src_v ~dst_v =
  let mask = mask_of size and msb = msb_of size in
  let s = src_v land mask and d = dst_v land mask in
  let logical_flags r =
    set_flags t ~c:(r <> 0) ~z:(r = 0) ~n:(r land msb <> 0) ~v:false;
    r
  in
  match op with
  | Isa.MOV -> Some s
  | Isa.ADD -> Some (alu_add t ~size ~carry_in:false d s)
  | Isa.ADDC -> Some (alu_add t ~size ~carry_in:(get_flag t Isa.flag_c) d s)
  | Isa.SUB -> Some (alu_add t ~size ~carry_in:true d (lnot s land mask))
  | Isa.SUBC ->
    Some (alu_add t ~size ~carry_in:(get_flag t Isa.flag_c) d (lnot s land mask))
  | Isa.CMP ->
    ignore (alu_add t ~size ~carry_in:true d (lnot s land mask));
    None
  | Isa.DADD -> Some (alu_dadd t ~size d s)
  | Isa.BIT ->
    ignore (logical_flags (d land s));
    None
  | Isa.BIC -> Some (d land lnot s land mask)
  | Isa.BIS -> Some (d lor s)
  | Isa.XOR ->
    let r = (d lxor s) land mask in
    set_flags t ~c:(r <> 0) ~z:(r = 0) ~n:(r land msb <> 0)
      ~v:(d land msb <> 0 && s land msb <> 0);
    Some r
  | Isa.AND -> Some (logical_flags (d land s))

(* ---------------- operand access ---------------- *)

(* Stage offsets within the executing instruction; see Timing. *)

let src_operand t ~size ~(src : Isa.src) ~stage =
  (* Returns (value, address option).  Consumes extension words /
     autoincrements.  [stage] is a mutable cycle offset counter. *)
  let next_pc_word () =
    let a = t.regs.(0) in
    incr stage;
    let w = bus_read_word t ~now:(t.cycles + !stage) a in
    t.regs.(0) <- w16 (a + 2);
    w
  in
  match src with
  | Isa.Sreg r ->
    let v = t.regs.(r) in
    (v land mask_of size, None)
  | Isa.Imm n ->
    if Timing.src_ext_cycles src = 1 then begin
      let w = next_pc_word () in
      (w land mask_of size, None)
    end
    else (n land mask_of size, None)
  | Isa.Sidx (r, x) ->
    let x' = if Timing.src_ext_cycles src = 1 then next_pc_word () else x in
    (* the assembler encodes &abs as Sidx(sr, x) with base 0 *)
    let base = if r = Isa.sr then 0 else t.regs.(r) in
    let addr = w16 (base + x') in
    incr stage;
    (bus_read t ~now:(t.cycles + !stage) ~size addr, Some addr)
  | Isa.Sind r ->
    let addr = t.regs.(r) in
    incr stage;
    (bus_read t ~now:(t.cycles + !stage) ~size addr, Some addr)
  | Isa.Sinc r ->
    let addr = t.regs.(r) in
    let bump = if size = Isa.Byte && r <> Isa.pc && r <> Isa.sp then 1 else 2 in
    incr stage;
    let v = bus_read t ~now:(t.cycles + !stage) ~size addr in
    t.regs.(r) <- w16 (addr + bump);
    (v, Some addr)

let write_reg t ~size r v =
  (* byte writes zero-extend into the register *)
  t.regs.(r) <- v land mask_of size

(* ---------------- instruction execution ---------------- *)

let fetch_insn t =
  let pc0 = t.regs.(0) in
  let w0 = bus_read_word t ~now:t.cycles pc0 in
  let rest =
    [
      bus_read_word t ~now:t.cycles (w16 (pc0 + 2));
      bus_read_word t ~now:t.cycles (w16 (pc0 + 4));
    ]
  in
  Isa.decode w0 rest

let current_insn t = fst (fetch_insn t)

let take_irq t =
  (* pre-empted fetch (cycle 0), push PC (1), push SR (2), vector (3) *)
  t.regs.(1) <- w16 (t.regs.(1) - 2);
  bus_write_word t ~now:(t.cycles + 1) t.regs.(1) t.regs.(0);
  t.regs.(1) <- w16 (t.regs.(1) - 2);
  bus_write_word t ~now:(t.cycles + 2) t.regs.(1) t.regs.(2);
  t.regs.(2) <- 0;
  t.sfr_ifg <- t.sfr_ifg land lnot 1;
  t.regs.(0) <- bus_read_word t ~now:(t.cycles + 3) Memmap.irq_vector;
  t.cycles <- t.cycles + Timing.irq_entry_cycles

let step t =
  if t.halted then ()
  else begin
    (* The pending check sees the flag as of the previous boundary: in
       hardware the line is latched into IFG at clock edges, so it
       cannot preempt the instruction already being fetched.  The
       line is ORed in at the end of this step (below). *)
    if
      t.sfr_ifg land t.sfr_ie land 1 = 1 && get_flag t Isa.flag_gie
    then take_irq t
    else begin
      (* Debug block: PC trace latch and breakpoint compare happen at
         the fetch edge in hardware. *)
      if t.dbg_ctl land 1 = 1 then t.dbg_pc <- t.regs.(0);
      if t.dbg_ctl land 2 = 2 && t.regs.(0) = t.dbg_brk then
        t.dbg_ctl <- t.dbg_ctl lor 0x8000;
      let insn, _words = fetch_insn t in
      let total_cycles = Timing.cycles insn in
      let stage = ref 0 in  (* FETCH is stage 0 *)
      t.regs.(0) <- w16 (t.regs.(0) + 2);
      (match insn with
      | Isa.Jump { cond; off } ->
        if Isa.cond_holds cond ~sr_value:t.regs.(2) then
          t.regs.(0) <- w16 (t.regs.(0) + (2 * off))
      | Isa.Two { op; size; src; dst } -> (
        let src_v, _ = src_operand t ~size ~src ~stage in
        match dst with
        | Isa.Dreg r ->
          let dst_v = t.regs.(r) land mask_of size in
          incr stage (* EXEC *);
          (match exec_two t ~size op ~src_v ~dst_v with
          | Some r_v -> write_reg t ~size r r_v
          | None -> ())
        | Isa.Didx (r, x) ->
          incr stage (* DST_EXT: consume the extension word *);
          t.regs.(0) <- w16 (t.regs.(0) + 2);
          let base = if r = Isa.sr then 0 else t.regs.(r) in
          let addr = w16 (base + x) in
          incr stage (* DST_RD *);
          let dst_v = bus_read t ~now:(t.cycles + !stage) ~size addr in
          incr stage (* EXEC *);
          (match exec_two t ~size op ~src_v ~dst_v with
          | Some r_v ->
            incr stage (* DST_WR *);
            bus_write t ~now:(t.cycles + !stage) ~size addr r_v
          | None -> ()))
      | Isa.One { op = Isa.RETI; _ } ->
        t.regs.(2) <- bus_read_word t ~now:(t.cycles + 1) t.regs.(1);
        t.regs.(1) <- w16 (t.regs.(1) + 2);
        t.regs.(0) <- bus_read_word t ~now:(t.cycles + 2) t.regs.(1);
        t.regs.(1) <- w16 (t.regs.(1) + 2)
      | Isa.One { op = Isa.PUSH; size; dst } ->
        let v, _ = src_operand t ~size ~src:dst ~stage in
        incr stage (* EXEC: SP -= 2 *);
        t.regs.(1) <- w16 (t.regs.(1) - 2);
        incr stage (* WR *);
        (* push.b writes a zero-extended word (see DESIGN.md) *)
        bus_write_word t ~now:(t.cycles + !stage) t.regs.(1) (v land mask_of size)
      | Isa.One { op = Isa.CALL; dst; _ } ->
        let target, _addr = src_operand t ~size:Isa.Word ~src:dst ~stage in
        incr stage (* EXEC *);
        t.regs.(1) <- w16 (t.regs.(1) - 2);
        incr stage (* WR *);
        bus_write_word t ~now:(t.cycles + !stage) t.regs.(1) t.regs.(0);
        t.regs.(0) <- w16 target
      | Isa.One { op; size; dst } -> (
        let v, addr = src_operand t ~size ~src:dst ~stage in
        incr stage (* EXEC *);
        let mask = mask_of size and msb = msb_of size in
        let result =
          match op with
          | Isa.RRC ->
            let cin = if get_flag t Isa.flag_c then msb else 0 in
            let r = (v lsr 1) lor cin in
            set_flags t ~c:(v land 1 = 1) ~z:(r = 0) ~n:(r land msb <> 0)
              ~v:false;
            Some r
          | Isa.RRA ->
            let r = (v lsr 1) lor (v land msb) in
            set_flags t ~c:(v land 1 = 1) ~z:(r = 0) ~n:(r land msb <> 0)
              ~v:false;
            Some r
          | Isa.SWPB ->
            Some (((v lsl 8) lor (v lsr 8)) land 0xffff)
          | Isa.SXT ->
            let r = if v land 0x80 <> 0 then v lor 0xff00 else v land 0xff in
            set_flags t ~c:(r <> 0) ~z:(r = 0) ~n:(r land 0x8000 <> 0) ~v:false;
            Some r
          | Isa.PUSH | Isa.CALL | Isa.RETI -> assert false
        in
        ignore mask;
        let wsize = match op with Isa.SWPB | Isa.SXT -> Isa.Word | _ -> size in
        match result, dst, addr with
        | Some r, Isa.Sreg rn, _ -> write_reg t ~size:wsize rn r
        | Some r, _, Some a ->
          incr stage (* WB *);
          bus_write t ~now:(t.cycles + !stage) ~size:wsize a r
        | Some _, _, None -> ()  (* e.g. rra #4: result discarded *)
        | None, _, _ -> ()));
      t.cycles <- t.cycles + total_cycles;
      t.retired <- t.retired + 1
    end;
    if t.irq_line then t.sfr_ifg <- t.sfr_ifg lor 1
  end

let run ?(max_insns = 2_000_000) t =
  let n = ref 0 in
  while (not t.halted) && !n < max_insns do
    step t;
    incr n
  done;
  if not t.halted then
    failwith (Printf.sprintf "Iss.run: not halted after %d instructions" max_insns)
