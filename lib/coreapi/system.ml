module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Memory = Bespoke_sim.Memory
module Obs = Bespoke_obs.Obs

(* Core-generic gate-level system harness: one core netlist (per the
   {!Coredef} hook contract) plus word-addressed instruction and data
   memories, ternary-precision GPIO/IRQ inputs, and snapshot/restore
   for the symbolic explorer.  All geometry (word width, address
   shift, memory sizes) comes from the core descriptor. *)

(* Sampled phase timers of [step_cycle] (every 64th cycle, Obs on
   only); [sim.commit_ns] includes the engine's cycle hook, which
   {!Engine} times on its own as [sim.hook_ns]. *)
let h_write = Obs.Metrics.histogram "sim.write_ns"
let h_step = Obs.Metrics.histogram "sim.step_ns"
let h_feed = Obs.Metrics.histogram "sim.feed_ns"
let h_commit = Obs.Metrics.histogram "sim.commit_ns"

(* Gate ids of the signals the per-cycle loop probes, resolved once at
   [create] so the hot path never goes through string lookups or
   allocates Bvecs. *)
type hooks = {
  pmem_widx : int array;  (* pmem_addr word-index bits *)
  dmem_widx : int array;  (* dmem_addr word-index bits *)
  pmem_rdata : int array;
  dmem_rdata : int array;
  dmem_wdata : int array;
  dmem_wen : int;
  dmem_ben : int array;  (* one byte-enable per 8 data bits *)
  gpio_wr : int;
  halted : int;
  fetching : int;
  insn_boundary : int;
  gpio_in : int array;
  irq_in : int;
}

type t = {
  core : Coredef.t;
  eng : Engine.t;
  image : Coredef.image;
  rom : Memory.t;
  ram : Memory.t;
  hk : hooks;
  mutable gpio_in : Bvec.t;
  mutable irq : Bit.t;
  mutable cycle : int;
  mutable trace : (int * Bvec.t) list;  (* newest first *)
}

let create ?(engine = Engine.create) ?netlist ~core (image : Coredef.image) =
  let net = match netlist with Some n -> n | None -> core.Coredef.build () in
  let eng = engine net in
  let width = core.Coredef.word_bits in
  let rom = Memory.create ~words:core.Coredef.mem_words ~width ~init:Bit.Zero in
  Array.iteri (fun i w -> Memory.load_int rom i w) image.Coredef.rom;
  let ram = Memory.create ~words:core.Coredef.mem_words ~width ~init:Bit.Zero in
  let bit0 name = (Netlist.find_name net name).(0) in
  let hk =
    {
      pmem_widx = Coredef.word_index_ids core net "pmem_addr";
      dmem_widx = Coredef.word_index_ids core net "dmem_addr";
      pmem_rdata = Netlist.find_input net "pmem_rdata";
      dmem_rdata = Netlist.find_input net "dmem_rdata";
      dmem_wdata = Netlist.find_name net "dmem_wdata";
      dmem_wen = bit0 "dmem_wen";
      dmem_ben = Netlist.find_name net "dmem_ben";
      gpio_wr = bit0 "gpio_wr";
      halted = bit0 "halted";
      fetching = bit0 "fetching";
      insn_boundary = bit0 "insn_boundary";
      gpio_in = Netlist.find_input net "gpio_in";
      irq_in = (Netlist.find_input net "irq").(0);
    }
  in
  {
    core;
    eng;
    image;
    rom;
    ram;
    hk;
    gpio_in = Bvec.of_int ~width 0;
    irq = Bit.Zero;
    cycle = 0;
    trace = [];
  }

let core t = t.core
let netlist t = Engine.netlist t.eng
let engine t = t.eng
let image t = t.image

let set_gates t ids (v : Bvec.t) =
  Array.iteri (fun i id -> Engine.set_gate t.eng id v.(i)) ids

let read_gates t ids = Array.map (Engine.value t.eng) ids

(* Feed combinational memory read data for the currently settled
   cycle.  The int fast path applies while address and stored word are
   fully known (the overwhelmingly common concrete case); any X falls
   back to the ternary Bvec path with identical semantics. *)
let feed_port t mem ~widx ~rdata =
  match Engine.read_int_ids t.eng widx with
  | Some w -> (
    match Memory.read_word_int mem w with
    | Some v -> Engine.set_gates_int t.eng rdata v
    | None -> set_gates t rdata (Memory.read_word mem w))
  | None -> set_gates t rdata (Memory.read mem (read_gates t widx))

let feed_memories t =
  feed_port t t.rom ~widx:t.hk.pmem_widx ~rdata:t.hk.pmem_rdata;
  feed_port t t.ram ~widx:t.hk.dmem_widx ~rdata:t.hk.dmem_rdata;
  Engine.eval t.eng

let apply_inputs t =
  set_gates t t.hk.gpio_in t.gpio_in;
  Engine.set_gate t.eng t.hk.irq_in t.irq

let reset t =
  Memory.clear t.ram Bit.Zero;
  Array.iteri (fun i w -> Memory.load_int t.rom i w) t.image.Coredef.rom;
  Engine.reset t.eng;
  apply_inputs t;
  Engine.eval t.eng;
  feed_memories t;
  t.cycle <- 0;
  t.trace <- []

let set_gpio_in t v =
  t.gpio_in <- v;
  apply_inputs t;
  Engine.eval t.eng;
  feed_memories t

let set_gpio_in_int t n =
  set_gpio_in t (Bvec.of_int ~width:t.core.Coredef.word_bits n)

let set_gpio_in_x t = set_gpio_in t (Bvec.all_x t.core.Coredef.word_bits)

(* The engine's irq input holds [t.irq] after every call here, so an
   unchanged line needs no re-settle: run loops drive it at every
   instruction boundary. *)
let set_irq t v =
  if not (Bit.equal v t.irq) then begin
    t.irq <- v;
    apply_inputs t;
    Engine.eval t.eng;
    feed_memories t
  end

let read_hook t name = Engine.read t.eng name
let read_hook_int t name = Engine.read_int t.eng name
let pc t = read_hook t "pc"

let reg t i =
  match t.core.Coredef.reg_hook i with
  | Some name -> read_hook t name
  | None -> Bvec.of_int ~width:t.core.Coredef.word_bits 0

(* The compared architectural registers, each with a dual-rail reader
   ({!Engine.rails_reader}) resolved once per system: [read dst] puts
   the register's rails in [dst.(0)] (bit can be 0) and [dst.(1)] (bit
   can be 1).  A register without a hook reads as constant 0, like
   {!reg}. *)
type arch_reg = { index : int; width : int; read : int array -> unit }

let arch_regs t =
  let reg index =
    match t.core.Coredef.reg_hook index with
    | Some name ->
      let ids = Netlist.find_name (netlist t) name in
      { index; width = Array.length ids; read = Engine.rails_reader t.eng ids }
    | None ->
      let width = t.core.Coredef.word_bits in
      let read dst =
        dst.(0) <- (1 lsl width) - 1;
        dst.(1) <- 0
      in
      { index; width; read }
  in
  Array.of_list (List.map reg t.core.Coredef.arch_regs)

let halted t = Engine.value_code t.eng t.hk.halted = 1
let fetching t = Engine.value t.eng t.hk.fetching

let insn_boundary_code t = Engine.value_code t.eng t.hk.insn_boundary
let cycles t = t.cycle
let ram t = t.ram

let ram_index t addr = Coredef.ram_index t.core addr
let read_ram_word t addr = Memory.read_word t.ram (ram_index t addr)
let load_ram_word t addr v = Memory.load_int t.ram (ram_index t addr) v

let set_ram_x t ~lo_addr ~hi_addr =
  Memory.set_x_range t.ram ~lo:(ram_index t lo_addr) ~hi:(ram_index t hi_addr)

let gpio_out t = read_hook t "gpio_out"

let output_trace t = List.rev t.trace

(* Sample this cycle's RAM write (if any) and the GPIO trace.  The
   ternary path is kept for any X on the write port; definite writes
   (the common case) go through the masked-int fast path. *)
let byte_mask t (ben : Bvec.t) =
  Array.init t.core.Coredef.word_bits (fun i -> ben.(i / 8))

let sample_writes_slow t wen =
  let hk = t.hk in
  let mask = byte_mask t (read_gates t hk.dmem_ben) in
  Memory.write t.ram ~addr:(read_gates t hk.dmem_widx)
    ~data:(read_gates t hk.dmem_wdata) ~mask ~en:wen

let sample_writes t =
  let hk = t.hk in
  (match Engine.value_code t.eng hk.dmem_wen with
  | 0 -> ()
  | 1 -> (
    let lanes = Array.length hk.dmem_ben in
    let mask = ref 0 and definite = ref true in
    for l = 0 to lanes - 1 do
      match Engine.value_code t.eng hk.dmem_ben.(l) with
      | 0 -> ()
      | 1 -> mask := !mask lor (0xff lsl (8 * l))
      | _ -> definite := false
    done;
    if !definite then
      match
        ( Engine.read_int_ids t.eng hk.dmem_widx,
          Engine.read_int_ids t.eng hk.dmem_wdata )
      with
      | Some w, Some data ->
        if !mask <> 0 then Memory.write_masked_int t.ram w ~data ~mask:!mask
      | _ -> sample_writes_slow t Bit.One
    else sample_writes_slow t Bit.One)
  | _ -> sample_writes_slow t Bit.X);
  match Engine.value_code t.eng hk.gpio_wr with
  | 1 -> t.trace <- (t.cycle, gpio_out t) :: t.trace
  | _ -> ()

(* Inputs persist across the clock edge; the memory data is recomputed
   for the new cycle, which is then committed at once, so a path that
   ends here (halt, prune, fork) has its final transition recorded. *)
let step_cycle t =
  if Obs.enabled () && t.cycle land 63 = 63 then begin
    let t0 = Obs.now_ns () in
    sample_writes t;
    let t1 = Obs.Metrics.lap h_write t0 in
    Engine.step t.eng;
    let t2 = Obs.Metrics.lap h_step t1 in
    feed_memories t;
    let t3 = Obs.Metrics.lap h_feed t2 in
    Engine.commit_cycle t.eng;
    ignore (Obs.Metrics.lap h_commit t3)
  end
  else begin
    sample_writes t;
    Engine.step t.eng;
    feed_memories t;
    Engine.commit_cycle t.eng
  end;
  t.cycle <- t.cycle + 1

let run_to_boundary ?(max_cycles = 1_000_000) t =
  let deadline = t.cycle + max_cycles in
  let rec go () =
    if halted t then `Halted
    else begin
      step_cycle t;
      if t.cycle > deadline then
        failwith "System.run_to_boundary: cycle limit exceeded";
      if halted t then `Halted
      else
        (* Stop at every fetch-state cycle, including one whose fetch
           is pre-empted by a pending interrupt: that is still an
           instruction boundary (it aligns with the ISS, whose
           interrupt entry is its own step). *)
        match insn_boundary_code t with
        | 1 -> `Fetch
        | 0 -> go ()
        | _ -> `Unknown
    end
  in
  go ()

let run ?(max_cycles = 5_000_000) t =
  let deadline = t.cycle + max_cycles in
  while (not (halted t)) && t.cycle <= deadline do
    step_cycle t
  done;
  if not (halted t) then failwith "System.run: cycle limit exceeded";
  t.cycle

(* Sampled timers of the exploration-state operations below: every
   16th call of each is timed, and only while Obs is on.  The call
   counts are shared by all systems, so concurrent explorations only
   shift which of their calls get timed. *)
type timer = { h : Obs.Metrics.histogram; mutable calls : int }

let timer name = { h = Obs.Metrics.histogram name; calls = 0 }
let t_snapshot = timer "analysis.snapshot_ns"
let t_subsume = timer "analysis.subsume_ns"
let t_merge = timer "analysis.merge_ns"
let t_restore = timer "analysis.restore_ns"
let m_restores = Obs.Metrics.counter "analysis.restores"

let start tm =
  if Obs.enabled () then begin
    tm.calls <- tm.calls + 1;
    if tm.calls land 15 = 0 then Obs.now_ns () else 0
  end
  else 0

let stop tm t0 = if t0 <> 0 then ignore (Obs.Metrics.lap tm.h t0)

(* An exploration state: the engine's DFF rails ({!Engine.dff_rails})
   and the data RAM's pages, shared with every snapshot they were not
   written since.  Snapshots are immutable. *)
type snapshot = { dffs : int array; ram_snap : Memory.snapshot }

let snapshot t =
  let t0 = start t_snapshot in
  let s = { dffs = Engine.dff_rails t.eng; ram_snap = Memory.snapshot t.ram } in
  stop t_snapshot t0;
  s

let restore t s =
  let t0 = start t_restore in
  Memory.restore t.ram s.ram_snap;
  Engine.restore_dff_rails t.eng s.dffs;
  apply_inputs t;
  Engine.eval t.eng;
  feed_memories t;
  (* the jump between exploration states is not switching activity *)
  Engine.sync_prev t.eng;
  if Obs.enabled () then Obs.Metrics.incr m_restores;
  stop t_restore t0

let snapshot_subsumes ~general ~specific =
  let t0 = start t_subsume in
  let r =
    Engine.rails_subsumes ~general:general.dffs ~specific:specific.dffs
    && Memory.subsumes ~general:general.ram_snap ~specific:specific.ram_snap
  in
  stop t_subsume t0;
  r

let snapshot_merge a b =
  let t0 = start t_merge in
  let m =
    {
      dffs = Engine.rails_merge a.dffs b.dffs;
      ram_snap = Memory.merge_snapshot a.ram_snap b.ram_snap;
    }
  in
  stop t_merge t0;
  m

(* The {!Engine.dff_slot}s of a named hook's bits, for forcing forked
   values.  In a bespoke (pruned) netlist some hook bits are constants
   rather than DFFs; those get slot -1 and [force_dffs] skips them (a
   reachable forced value always agrees with the constant the cut
   recorded). *)
let dff_slots t hook =
  Array.map (Engine.dff_slot t.eng) (Netlist.find_name (netlist t) hook)

(* A copy of [s] with the DFF in [slots.(i)] set to bit [i] of [v]. *)
let force_dffs s slots v =
  let dffs = Array.copy s.dffs in
  Array.iteri
    (fun i slot ->
      if slot >= 0 then Engine.set_slot dffs slot (Bit.of_bool ((v lsr i) land 1 = 1)))
    slots;
  { s with dffs }
