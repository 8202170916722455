(** Synthetic 65 nm-class standard-cell library.

    Stands in for the paper's TSMC 65GP characterization: per-cell
    area, leakage, pin capacitance and a linear delay model
    (intrinsic + drive resistance x load), at the nominal operating
    point of 1.0 V / 100 MHz.  Absolute values are invented but
    mutually consistent, so design-to-design ratios (the quantities the
    paper reports) are meaningful. *)

type cell = {
  name : string;
  area_um2 : float;
  leakage_nw : float;  (** static power at 1.0 V *)
  input_cap_ff : float;  (** capacitance of each input pin *)
  intrinsic_ps : float;  (** unloaded delay (clk->q for DFFs) *)
  drive_res_ps_per_ff : float;  (** slope of delay vs. output load *)
  internal_sw_ff : float;
      (** equivalent internal switched capacitance per output toggle *)
}

val of_gate : Bespoke_netlist.Gate.op -> drive:int -> cell
(** [Input] and [Const] map to zero-cost pseudo-cells (port pins and
    tie cells are free in our model). *)

val dff_setup_ps : float
val dff_clk_pin_cap_ff : float

val wire_cap_ff : fanout:int -> float
(** Estimated routed-wire capacitance of a net, our place-and-route
    proxy. *)

val area_routing_overhead : float
(** Multiplier applied to summed cell area to account for routing /
    utilization, the P&R effect on die area. *)

(** {1 Operating-point scaling}

    Alpha-power-law MOSFET model: delay(v) scales as
    [(v0/v) * ((v0 - vth)/(v - vth))^alpha] relative to [v0] = 1.0 V. *)

val vdd_nominal : float
val vdd_floor : float
(** Lowest supply the cells are characterized for. *)

val delay_scale : vdd:float -> float

val dynamic_scale : vdd:float -> float
(** Proportional to V^2. *)

val leakage_scale : vdd:float -> float

val guard_band : float
(** Multiplier on path delay for worst-case PVT when choosing Vmin. *)
