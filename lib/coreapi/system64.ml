module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Engine64 = Bespoke_sim.Engine64
module Memory = Bespoke_sim.Memory
module Obs = Bespoke_obs.Obs

(* Packed counterpart of {!System}: one core netlist simulated across
   up to 63 lanes at once, each lane with its own data RAM, GPIO value
   and IRQ line.  The ROM is shared (never written after load).  Each
   lane keeps {!System}'s semantics exactly, so its committed activity
   is bit-identical to a scalar run: the read ports move X-free lanes
   as whole words read straight from the engine's rails, and a lane
   with an X address or data word takes the per-lane ternary path
   {!Memory} defines. *)

(* Sampled phase timers of [step_cycle] (every 64th cycle, Obs on
   only), the packed twins of {!System}'s [sim.*] histograms. *)
let h_write = Obs.Metrics.histogram "sim.packed.write_ns"
let h_step = Obs.Metrics.histogram "sim.packed.step_ns"
let h_feed = Obs.Metrics.histogram "sim.packed.feed_ns"
let h_commit = Obs.Metrics.histogram "sim.packed.commit_ns"

(* A memory read port: its word-index and read-data gate ids, the
   memory each lane reads, and scratch rails for the data being fed. *)
type port = {
  widx : int array;
  rdata : int array;
  mems : Memory.t array;  (* per lane *)
  d_lo : int array;
  d_hi : int array;
}

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
  (* gate ids the per-cycle loop probes, resolved at [create] *)
  pmem : port;
  dmem : port;
  gpio_in_ids : int array;
  irq_id : int;
  gpio_out_ids : int array;
  dmem_wdata : int array;
  dmem_ben : int array;  (* one byte-enable per 8 data bits *)
  dmem_wen : int;
  halted_id : int;
  fetching_id : int;
  insn_boundary_id : int;
}

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
  let port addr rdata mems =
    let rdata = Netlist.find_input net rdata in
    {
      widx = Coredef.word_index_ids core net addr;
      rdata;
      mems;
      d_lo = Array.make (Array.length rdata) 0;
      d_hi = Array.make (Array.length rdata) 0;
    }
  in
  let bit0 name = (Netlist.find_name net name).(0) in
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
    pmem = port "pmem_addr" "pmem_rdata" (Array.make lanes rom);
    dmem = port "dmem_addr" "dmem_rdata" rams;
    gpio_in_ids = Netlist.find_input net "gpio_in";
    irq_id = (Netlist.find_input net "irq").(0);
    gpio_out_ids = Netlist.find_name net "gpio_out";
    dmem_wdata = Netlist.find_name net "dmem_wdata";
    dmem_ben = Netlist.find_name net "dmem_ben";
    dmem_wen = bit0 "dmem_wen";
    halted_id = bit0 "halted";
    fetching_id = bit0 "fetching";
    insn_boundary_id = bit0 "insn_boundary";
  }

let engine t = t.eng
let cycles t = t.cycle

(* Lanes in which any of [ids] is X. *)
let x_lanes t ids =
  let m = ref 0 in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    m := !m lor (Engine64.rail_lo t.eng id land Engine64.rail_hi t.eng id)
  done;
  !m

(* The integer value of [ids] (LSB first) in an X-free lane. *)
let lane_int t ids lane =
  let v = ref 0 in
  for i = 0 to Array.length ids - 1 do
    v := !v lor (((Engine64.rail_hi t.eng ids.(i) lsr lane) land 1) lsl i)
  done;
  !v

let read_ids_lane t ids lane =
  Array.map (fun id -> Engine64.value_lane t.eng id lane) ids

(* Add the lanes of mask [m] reading the known word [v] to the port's
   data rails. *)
let spread p v m =
  for i = 0 to Array.length p.rdata - 1 do
    if (v lsr i) land 1 = 1 then p.d_hi.(i) <- p.d_hi.(i) lor m
    else p.d_lo.(i) <- p.d_lo.(i) lor m
  done

(* Feed one port's read data for the currently settled cycle.  Lanes
   with an X-free index and stored word go as words, consecutive lanes
   reading the same word in one [spread]; any other lane reads its
   memory through the ternary port. *)
let feed_port t p =
  let w = Array.length p.rdata in
  Array.fill p.d_lo 0 w 0;
  Array.fill p.d_hi 0 w 0;
  let xl = x_lanes t p.widx in
  let run_v = ref 0 and run_m = ref 0 in
  for lane = 0 to t.lanes - 1 do
    let bit = 1 lsl lane in
    let word =
      if xl land bit <> 0 then None
      else Memory.read_word_int p.mems.(lane) (lane_int t p.widx lane)
    in
    match word with
    | Some v ->
      if !run_m <> 0 && v <> !run_v then begin
        spread p !run_v !run_m;
        run_m := 0
      end;
      run_v := v;
      run_m := !run_m lor bit
    | None ->
      let data = Memory.read p.mems.(lane) (read_ids_lane t p.widx lane) in
      Array.iteri
        (fun i b ->
          if not (Bit.equal b Bit.One) then p.d_lo.(i) <- p.d_lo.(i) lor bit;
          if not (Bit.equal b Bit.Zero) then p.d_hi.(i) <- p.d_hi.(i) lor bit)
        data
  done;
  if !run_m <> 0 then spread p !run_v !run_m;
  for i = 0 to w - 1 do
    Engine64.set_gate_packed t.eng p.rdata.(i) ~lo:p.d_lo.(i) ~hi:p.d_hi.(i)
  done

let feed_memories t =
  feed_port t t.pmem;
  feed_port t t.dmem;
  Engine64.eval t.eng

let set_irq_rails t =
  for lane = 0 to t.lanes - 1 do
    Engine64.set_gate_lane t.eng t.irq_id lane t.irq.(lane)
  done

let set_gpio_rails t lane =
  Array.iteri
    (fun i id -> Engine64.set_gate_lane t.eng id lane t.gpio_in.(lane).(i))
    t.gpio_in_ids

let reset t =
  Array.iter (fun ram -> Memory.clear ram Bit.Zero) t.rams;
  Array.iteri (fun i w -> Memory.load_int t.rom i w) t.image.Coredef.rom;
  Engine64.reset t.eng;
  for lane = 0 to t.lanes - 1 do
    set_gpio_rails t lane
  done;
  set_irq_rails t;
  Engine64.eval t.eng;
  feed_memories t;
  t.cycle <- 0

let set_gpio_in_lane t lane (v : Bvec.t) =
  if Bvec.width v <> Array.length t.gpio_in_ids then
    invalid_arg "System64.set_gpio_in_lane: width mismatch";
  t.gpio_in.(lane) <- v;
  set_gpio_rails t lane;
  Engine64.eval t.eng;
  feed_memories t

let set_gpio_in_lane_int t lane n =
  set_gpio_in_lane t lane (Bvec.of_int ~width:t.core.Coredef.word_bits n)

(* The engine's irq input holds [t.irq] after every call here, so only
   a changed line re-settles. *)
let set_irq_lanes t (vs : Bit.t array) =
  let changed = ref false in
  for lane = 0 to t.lanes - 1 do
    if not (Bit.equal vs.(lane) t.irq.(lane)) then begin
      t.irq.(lane) <- vs.(lane);
      changed := true
    end
  done;
  if !changed then begin
    set_irq_rails t;
    Engine64.eval t.eng;
    feed_memories t
  end

let halted_lane t lane =
  Bit.equal (Engine64.value_lane t.eng t.halted_id lane) Bit.One

let fetching_lane t lane = Engine64.value_lane t.eng t.fetching_id lane

let insn_boundary_lane t lane =
  Engine64.value_lane t.eng t.insn_boundary_id lane

let ram t lane = t.rams.(lane)

let read_ram_word t lane addr =
  Memory.read_word t.rams.(lane) (Coredef.ram_index t.core addr)

let gpio_out_lane t lane = read_ids_lane t t.gpio_out_ids lane

(* Sample this cycle's RAM writes, lane by lane, for active lanes
   only: a lane whose scalar counterpart has stopped must stop
   mutating its memory.  Writes are rare enough that every writing
   lane (write enable 1 or X) takes the ternary write. *)
let sample_writes t ~active =
  let writers = Engine64.rail_hi t.eng t.dmem_wen land active in
  if writers <> 0 then
    for lane = 0 to t.lanes - 1 do
      if writers land (1 lsl lane) <> 0 then begin
        let ben = read_ids_lane t t.dmem_ben lane in
        let mask = Array.init t.core.Coredef.word_bits (fun i -> ben.(i / 8)) in
        Memory.write t.rams.(lane)
          ~addr:(read_ids_lane t t.dmem.widx lane)
          ~data:(read_ids_lane t t.dmem_wdata lane)
          ~mask
          ~en:(Engine64.value_lane t.eng t.dmem_wen lane)
      end
    done

let step_cycle t ~active =
  if Obs.enabled () && t.cycle land 63 = 63 then begin
    let t0 = Obs.now_ns () in
    sample_writes t ~active;
    let t1 = Obs.Metrics.lap h_write t0 in
    Engine64.step t.eng;
    let t2 = Obs.Metrics.lap h_step t1 in
    feed_memories t;
    let t3 = Obs.Metrics.lap h_feed t2 in
    Engine64.commit_cycle ~active t.eng;
    ignore (Obs.Metrics.lap h_commit t3)
  end
  else begin
    sample_writes t ~active;
    Engine64.step t.eng;
    feed_memories t;
    Engine64.commit_cycle ~active t.eng
  end;
  t.cycle <- t.cycle + 1

let load_ram_word t lane addr v =
  Memory.load_int t.rams.(lane) (Coredef.ram_index t.core addr) v
