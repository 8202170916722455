module Gate = Bespoke_netlist.Gate

type cell = {
  name : string;
  area_um2 : float;
  leakage_nw : float;
  input_cap_ff : float;
  intrinsic_ps : float;
  drive_res_ps_per_ff : float;
  internal_sw_ff : float;
}

let mk name area leak cap intr res sw =
  {
    name;
    area_um2 = area;
    leakage_nw = leak;
    input_cap_ff = cap;
    intrinsic_ps = intr;
    drive_res_ps_per_ff = res;
    internal_sw_ff = sw;
  }

(* X2 variants: ~1.5x area/leakage, double the input cap, roughly half
   the drive resistance, slightly lower intrinsic delay. *)
let upsize c =
  {
    name = c.name ^ "_x2";
    area_um2 = c.area_um2 *. 1.5;
    leakage_nw = c.leakage_nw *. 1.9;
    input_cap_ff = c.input_cap_ff *. 2.0;
    intrinsic_ps = c.intrinsic_ps *. 0.9;
    drive_res_ps_per_ff = c.drive_res_ps_per_ff *. 0.55;
    internal_sw_ff = c.internal_sw_ff *. 1.7;
  }

let zero_cell name = mk name 0.0 0.0 0.0 0.0 0.0 0.0
let inv = mk "inv_x1" 1.08 2.1 1.6 12.0 6.0 1.2
let buf = mk "buf_x1" 1.44 2.6 1.5 24.0 5.5 2.0
let nand2 = mk "nand2_x1" 1.44 2.9 1.7 16.0 6.5 1.6
let nor2 = mk "nor2_x1" 1.44 2.7 1.7 20.0 7.5 1.6
let and2 = mk "and2_x1" 1.80 3.4 1.7 28.0 6.0 2.4
let or2 = mk "or2_x1" 1.80 3.3 1.7 30.0 6.2 2.4
let xor2 = mk "xor2_x1" 3.24 5.6 3.0 36.0 7.0 3.6
let xnor2 = mk "xnor2_x1" 3.24 5.7 3.0 36.0 7.0 3.6
let mux2 = mk "mux2_x1" 3.60 6.1 2.2 38.0 7.0 3.8
let dff = mk "dff_x1" 7.20 12.4 2.0 96.0 8.0 7.5

let base_of_op (op : Gate.op) =
  match op with
  | Gate.Input -> zero_cell "port"
  | Gate.Const _ -> zero_cell "tie"
  | Gate.Buf -> buf
  | Gate.Not -> inv
  | Gate.And -> and2
  | Gate.Or -> or2
  | Gate.Nand -> nand2
  | Gate.Nor -> nor2
  | Gate.Xor -> xor2
  | Gate.Xnor -> xnor2
  | Gate.Mux -> mux2
  | Gate.Dff _ -> dff

let of_gate op ~drive =
  let c = base_of_op op in
  match op with
  | Gate.Input | Gate.Const _ -> c
  | _ -> if drive <= 0 then c else upsize c

let dff_setup_ps = 42.0
let dff_clk_pin_cap_ff = 1.1

(* Average routed-net capacitance grows with fanout; 65 nm-scale
   figures (~0.2 fF/um, short nets). *)
let wire_cap_ff ~fanout = 0.8 +. (0.9 *. float_of_int (max 1 fanout))

let area_routing_overhead = 1.25
let vdd_nominal = 1.0
let vdd_floor = 0.50
let vth = 0.35
let alpha = 1.3

(* Alpha-power law: gate delay is proportional to V / (V - Vth)^alpha;
   normalize so delay_scale ~vdd:vdd_nominal = 1. *)
let delay_scale ~vdd =
  if vdd <= vth +. 0.05 then infinity
  else
    let raw v = v /. ((v -. vth) ** alpha) in
    raw vdd /. raw vdd_nominal

let dynamic_scale ~vdd = vdd *. vdd /. (vdd_nominal *. vdd_nominal)

(* Leakage falls with Vdd (DIBL + stack effect): model as cubic. *)
let leakage_scale ~vdd = (vdd /. vdd_nominal) ** 3.0

let guard_band = 1.10
