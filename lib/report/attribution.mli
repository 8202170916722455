(** Per-RTL-module attribution of the bespoke savings — the paper's
    Table-2-style view ("which module lost how many gates / how much
    area and leakage"), also the basis of its coarse-grained
    (Xtensa-like) baseline comparison.

    Gate counts cover "real" gates only (ports and tie cells are free);
    area and leakage use the same cell-library accounting as
    {!Bespoke_power.Report}, so the "(total)" row agrees with the
    aggregate numbers the tailor flow prints. *)

module Netlist := Bespoke_netlist.Netlist

type row = {
  module_name : string;
  gates_original : int;
  gates_bespoke : int;  (** kept: still present in the bespoke design *)
  area_original : float;  (** um2, routing overhead included *)
  area_bespoke : float;
  leak_original : float;  (** nW at nominal supply *)
  leak_bespoke : float;
}

val gates_cut : row -> int

val table : original:Netlist.t -> bespoke:Netlist.t -> row list
(** One row per top-level RTL module present in either design, sorted
    by name, with a final ["(total)"] row summing the rest. *)

val pp : Format.formatter -> row list -> unit
