(** Gate-level re-synthesis: the optimization pass run after cutting
    and stitching (paper, Section 3.2).

    Performs, to a fixed point: constant propagation, gate
    simplification against constant/duplicate inputs, buffer and
    double-inverter collapsing, structural hashing, tying off a DFF
    whose D pin is itself or a constant equal to its reset value, and
    removal of gates whose outputs cannot reach a state element or
    output port (floating outputs). *)

val optimize : Bespoke_netlist.Netlist.t -> Bespoke_netlist.Netlist.t
(** Iterate one rewrite + dead-sweep round until the gate count stops
    improving, for at most 8 rounds. *)

val optimize_traced :
  Bespoke_netlist.Netlist.t -> Bespoke_netlist.Netlist.t * int array
(** Like {!optimize}, but also returns the composed old-id -> new-id
    map ([-1] for gates with no image in the result: swept dead or
    folded away) — the raw material of cut/keep provenance. *)
