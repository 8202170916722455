(** Area and power reporting (the PrimeTime stand-in).

    Dynamic power comes from per-gate toggle counts recorded by a
    concrete simulation with representative inputs; leakage and area
    from the cell library.  All figures are at the given supply. *)

type t = {
  num_gates : int;
  num_dffs : int;
  area_um2 : float;
  leakage_nw : float;
  dynamic_nw : float;
  clock_nw : float;  (** clock-tree load of the DFFs *)
  total_nw : float;
  vdd : float;
}

val area_um2 : Bespoke_netlist.Netlist.t -> float

val gate_area_um2 : Bespoke_netlist.Netlist.t -> int -> float
(** One gate's cell area (routing overhead included), so per-gate
    attributions sum exactly to {!area_um2}. *)

val gate_leakage_nw :
  ?vdd:float -> Bespoke_netlist.Netlist.t -> int -> float
(** One gate's static leakage at the given supply (default nominal). *)

val leakage_nw : ?vdd:float -> Bespoke_netlist.Netlist.t -> float
(** Whole-design static leakage, independent of any activity trace
    (the savings-report numerator; {!power} adds the dynamic terms). *)

val power :
  ?vdd:float ->
  freq_hz:float ->
  toggles:int array ->
  cycles:int ->
  Bespoke_netlist.Netlist.t ->
  t

val pp : Format.formatter -> t -> unit
