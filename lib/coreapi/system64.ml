module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Engine64 = Bespoke_sim.Engine64
module Memory = Bespoke_sim.Memory

(* Packed counterpart of {!System}: one core netlist simulated across
   up to 63 lanes at once, each lane with its own data RAM, GPIO value
   and IRQ line.  The ROM is shared (never written after load).  Code
   paths deliberately mirror {!System} statement for statement so each
   lane's committed activity is bit-identical to a scalar run. *)

let ilog2 n =
  let rec go i = if 1 lsl i >= n then i else go (i + 1) in
  go 0

type t = {
  core : Coredef.t;
  eng : Engine64.t;
  lanes : int;
  image : Coredef.image;
  rom : Memory.t;
  rams : Memory.t array;  (* one per lane *)
  gpio_in : Bvec.t array;  (* per lane *)
  irq : Bit.t array;  (* per lane *)
  mutable cycle : int;
  (* cached port/hook gate ids for the per-cycle hot path *)
  pmem_addr : int array;
  pmem_rdata : int array;
  dmem_addr : int array;
  dmem_rdata : int array;
  dmem_wdata : int array;
  dmem_ben : int array;
  dmem_wen : int;
  halted_id : int;
  fetching_id : int;
  insn_boundary_id : int;
}

let word_index t (addr : Bvec.t) =
  Array.sub addr t.core.Coredef.addr_shift (ilog2 t.core.Coredef.mem_words)

let create ?(lanes = Engine64.max_lanes) ?netlist ~core
    (image : Coredef.image) =
  let net = match netlist with Some n -> n | None -> core.Coredef.build () in
  let eng = Engine64.create ~lanes net in
  let width = core.Coredef.word_bits in
  let rom = Memory.create ~words:core.Coredef.mem_words ~width ~init:Bit.Zero in
  Array.iteri (fun i w -> Memory.load_int rom i w) image.Coredef.rom;
  let rams =
    Array.init lanes (fun _ ->
        Memory.create ~words:core.Coredef.mem_words ~width ~init:Bit.Zero)
  in
  {
    core;
    eng;
    lanes;
    image;
    rom;
    rams;
    gpio_in = Array.make lanes (Bvec.of_int ~width 0);
    irq = Array.make lanes Bit.Zero;
    cycle = 0;
    pmem_addr = Netlist.find_name net "pmem_addr";
    pmem_rdata = Netlist.find_input net "pmem_rdata";
    dmem_addr = Netlist.find_name net "dmem_addr";
    dmem_rdata = Netlist.find_input net "dmem_rdata";
    dmem_wdata = Netlist.find_name net "dmem_wdata";
    dmem_ben = Netlist.find_name net "dmem_ben";
    dmem_wen = (Netlist.find_name net "dmem_wen").(0);
    halted_id = (Netlist.find_name net "halted").(0);
    fetching_id = (Netlist.find_name net "fetching").(0);
    insn_boundary_id = (Netlist.find_name net "insn_boundary").(0);
  }

let core t = t.core
let netlist t = Engine64.netlist t.eng
let engine t = t.eng
let lanes t = t.lanes
let image t = t.image
let cycles t = t.cycle

let read_ids_lane t ids lane =
  Array.map (fun id -> Engine64.value_lane t.eng id lane) ids

(* Feed packed memory read data for the currently settled cycle: read
   each lane's address scalar-wise, then transpose the data bits
   across lanes into the packed input rails. *)
let feed_one_port t ~addr_ids ~rdata_ids ~mem_of_lane =
  let lanes = t.lanes in
  let data = Array.make lanes [||] in
  for lane = 0 to lanes - 1 do
    let addr = read_ids_lane t addr_ids lane in
    data.(lane) <- Memory.read (mem_of_lane lane) (word_index t addr)
  done;
  Array.iteri
    (fun i id ->
      let lo = ref 0 and hi = ref 0 in
      for lane = 0 to lanes - 1 do
        (match data.(lane).(i) with
        | Bit.Zero -> lo := !lo lor (1 lsl lane)
        | Bit.One -> hi := !hi lor (1 lsl lane)
        | Bit.X ->
          lo := !lo lor (1 lsl lane);
          hi := !hi lor (1 lsl lane))
      done;
      Engine64.set_gate_packed t.eng id ~lo:!lo ~hi:!hi)
    rdata_ids

let feed_memories t =
  feed_one_port t ~addr_ids:t.pmem_addr ~rdata_ids:t.pmem_rdata
    ~mem_of_lane:(fun _ -> t.rom);
  feed_one_port t ~addr_ids:t.dmem_addr ~rdata_ids:t.dmem_rdata
    ~mem_of_lane:(fun lane -> t.rams.(lane));
  Engine64.eval t.eng

let apply_inputs t =
  Engine64.set_input_lanes t.eng "gpio_in" t.gpio_in;
  Engine64.set_input_lanes t.eng "irq" (Array.map (fun b -> [| b |]) t.irq)

let reset t =
  Array.iter (fun ram -> Memory.clear ram Bit.Zero) t.rams;
  Array.iteri (fun i w -> Memory.load_int t.rom i w) t.image.Coredef.rom;
  Engine64.reset t.eng;
  apply_inputs t;
  Engine64.eval t.eng;
  feed_memories t;
  t.cycle <- 0

let set_gpio_in_lane t lane v =
  t.gpio_in.(lane) <- v;
  apply_inputs t;
  Engine64.eval t.eng;
  feed_memories t

let set_gpio_in_lane_int t lane n =
  set_gpio_in_lane t lane (Bvec.of_int ~width:t.core.Coredef.word_bits n)

let set_irq_lanes t (vs : Bit.t array) =
  Array.blit vs 0 t.irq 0 t.lanes;
  apply_inputs t;
  Engine64.eval t.eng;
  feed_memories t

let halted_lane t lane =
  Bit.equal (Engine64.value_lane t.eng t.halted_id lane) Bit.One

let fetching_lane t lane = Engine64.value_lane t.eng t.fetching_id lane

let insn_boundary_lane t lane =
  Engine64.value_lane t.eng t.insn_boundary_id lane

let halted_mask t =
  let m = ref 0 in
  for lane = 0 to t.lanes - 1 do
    if halted_lane t lane then m := !m lor (1 lsl lane)
  done;
  !m

let ram t lane = t.rams.(lane)

let read_ram_word t lane addr =
  Memory.read_word t.rams.(lane) (Coredef.ram_index t.core addr)

let gpio_out_lane t lane = Engine64.read_lane t.eng "gpio_out" lane

(* Sample this cycle's RAM writes, lane by lane, for active lanes
   only: a lane whose scalar counterpart has stopped must stop
   mutating its memory. *)
let sample_writes t ~active =
  for lane = 0 to t.lanes - 1 do
    if active land (1 lsl lane) <> 0 then begin
      let wen = Engine64.value_lane t.eng t.dmem_wen lane in
      match wen with
      | Bit.Zero -> ()
      | Bit.One | Bit.X ->
        let addr = read_ids_lane t t.dmem_addr lane in
        let ben = read_ids_lane t t.dmem_ben lane in
        let data = read_ids_lane t t.dmem_wdata lane in
        let mask =
          Array.init t.core.Coredef.word_bits (fun i -> ben.(i / 8))
        in
        Memory.write t.rams.(lane) ~addr:(word_index t addr) ~data ~mask ~en:wen
    end
  done

let step_cycle t ~active =
  sample_writes t ~active;
  Engine64.step t.eng;
  feed_memories t;
  Engine64.commit_cycle ~active t.eng;
  t.cycle <- t.cycle + 1

let load_ram_word t lane addr v =
  Memory.load_int t.rams.(lane) (Coredef.ram_index t.core addr) v
