module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Cells = Bespoke_cells.Cells

type t = {
  num_gates : int;
  num_dffs : int;
  area_um2 : float;
  leakage_nw : float;
  dynamic_nw : float;
  clock_nw : float;
  total_nw : float;
  vdd : float;
}

let cell_of net id =
  let g = net.Netlist.gates.(id) in
  Cells.of_gate g.Gate.op ~drive:g.Gate.drive

let area_um2 net =
  let sum = ref 0.0 in
  for id = 0 to Netlist.gate_count net - 1 do
    sum := !sum +. (cell_of net id).Cells.area_um2
  done;
  !sum *. Cells.area_routing_overhead

let gate_area_um2 net id =
  (cell_of net id).Cells.area_um2 *. Cells.area_routing_overhead

let gate_leakage_nw ?(vdd = Cells.vdd_nominal) net id =
  (cell_of net id).Cells.leakage_nw *. Cells.leakage_scale ~vdd

let leakage_nw ?vdd net =
  let sum = ref 0.0 in
  for id = 0 to Netlist.gate_count net - 1 do
    sum := !sum +. gate_leakage_nw ?vdd net id
  done;
  !sum

let power ?(vdd = Cells.vdd_nominal) ~freq_hz ~toggles ~cycles net =
  let ng = Netlist.gate_count net in
  if Array.length toggles <> ng then
    invalid_arg "Report.power: toggle array size mismatch";
  let cycles = max cycles 1 in
  let fanout = Netlist.fanout net in
  let leak = ref 0.0 in
  let dyn_fj_per_cycle = ref 0.0 in
  let clk_fj_per_cycle = ref 0.0 in
  for id = 0 to ng - 1 do
    let cell = cell_of net id in
    leak := !leak +. cell.Cells.leakage_nw;
    let g = net.Netlist.gates.(id) in
    (match g.Gate.op with
    | Gate.Input | Gate.Const _ -> ()
    | _ ->
      let readers = fanout.(id) in
      let load =
        Cells.wire_cap_ff ~fanout:(Array.length readers)
        +. Array.fold_left
             (fun acc r -> acc +. (cell_of net r).Cells.input_cap_ff)
             0.0 readers
      in
      let sw_cap = load +. cell.Cells.internal_sw_ff in
      let rate = float_of_int toggles.(id) /. float_of_int cycles in
      dyn_fj_per_cycle := !dyn_fj_per_cycle +. (rate *. sw_cap));
    match g.Gate.op with
    | Gate.Dff _ ->
      (* two clock edges per cycle on every flop's clk pin *)
      clk_fj_per_cycle := !clk_fj_per_cycle +. (2.0 *. Cells.dff_clk_pin_cap_ff)
    | _ -> ()
  done;
  let v2 = Cells.dynamic_scale ~vdd in
  (* fF * V^2 * Hz = 1e-15 J * Hz = 1e-15 W; report in nW (1e-9) *)
  let to_nw fj_per_cycle = fj_per_cycle *. v2 *. freq_hz *. 1e-6 in
  let dynamic_nw = to_nw !dyn_fj_per_cycle in
  let clock_nw = to_nw !clk_fj_per_cycle in
  let leakage_nw = !leak *. Cells.leakage_scale ~vdd in
  {
    num_gates = Netlist.num_gates net;
    num_dffs = Netlist.num_dffs net;
    area_um2 = area_um2 net;
    leakage_nw;
    dynamic_nw;
    clock_nw;
    total_nw = leakage_nw +. dynamic_nw +. clock_nw;
    vdd;
  }

let pp fmt t =
  Format.fprintf fmt
    "%d gates (%d DFFs), %.0f um2, %.1f uW total (%.1f leak / %.1f dyn / %.1f clk) @ %.2f V"
    t.num_gates t.num_dffs t.area_um2 (t.total_nw /. 1000.0)
    (t.leakage_nw /. 1000.0) (t.dynamic_nw /. 1000.0) (t.clock_nw /. 1000.0)
    t.vdd
