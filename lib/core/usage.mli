(** Per-module usage breakdowns for the paper's figures.

    "Real" gates only: port pins and tie cells are excluded
    everywhere. *)

module Netlist := Bespoke_netlist.Netlist

type module_row = {
  module_name : string;
  total : int;
  active : int;  (** gates the application can toggle *)
}

val per_module : Netlist.t -> bool array -> module_row list
(** Sorted by module name; a final row named ["(total)"] sums the
    rest. *)

val usable_fraction : Netlist.t -> bool array -> float

type diff = {
  common_untoggled : int;  (** untoggled by both applications *)
  unique_a : int;  (** untoggled only by application A *)
  unique_b : int;
  per_module_unique_a : (string * int) list;
  per_module_unique_b : (string * int) list;
}

val compare_unused : Netlist.t -> bool array -> bool array -> diff
(** The Fig 3 / Fig 4 die-graph comparison in tabular form: gates
    neither application toggles vs. gates only one of them leaves
    untoggled, per module. *)

val pp_per_module : Format.formatter -> module_row list -> unit
