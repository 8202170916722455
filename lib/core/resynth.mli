(** Gate-level re-synthesis: the optimization pass run after cutting
    and stitching (paper, Section 3.2).

    Performs, to a fixed point: constant propagation, gate
    simplification against constant/duplicate inputs, buffer and
    double-inverter collapsing, structural hashing, elimination of
    DFFs stuck at their reset value, and removal of gates whose
    outputs cannot reach a state element or output port (floating
    outputs). *)

val pass :
  ?seq_const:bool -> Bespoke_netlist.Netlist.t -> Bespoke_netlist.Netlist.t
(** One rewrite + dead-sweep round.  [seq_const] (default true)
    enables sequential constant propagation (DFFs provably stuck at
    their reset value). *)

val optimize :
  ?seq_const:bool -> Bespoke_netlist.Netlist.t -> Bespoke_netlist.Netlist.t
(** Iterate {!pass} until the gate count stops improving, for at most
    8 rounds.  [seq_const] as in {!pass}; the ablation bench turns it
    off. *)

val optimize_traced :
  ?seq_const:bool -> Bespoke_netlist.Netlist.t ->
  Bespoke_netlist.Netlist.t * int array
(** Like {!optimize}, but also returns the composed old-id -> new-id
    map ([-1] for gates with no image in the result: swept dead or
    folded away) — the raw material of cut/keep provenance. *)
