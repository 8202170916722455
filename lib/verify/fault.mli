(** Adversarial fault injection: structural single-fault mutants of a
    bespoke netlist, used to measure the verification campaign's
    ability to detect a broken tailoring (the mutation-score
    methodology of Milu / KLEE's replay validation, applied to the
    netlist instead of the source).

    Every fault changes exactly one gate:

    - {b stuck-at-0/1}: a kept gate's output is tied to a constant;
    - {b wrong-tie}: a tie cell left behind by cutting (the constant a
      cut gate's fanout was stitched to) gets the opposite value;
    - {b dropped-gate}: a multi-input gate is bypassed by a buffer of
      one of its inputs, as if it had been lost in re-synthesis;
    - {b swapped-function}: the gate computes a sibling function
      (and<->or, nand<->nor, xor<->xnor, buf<->not, mux data swap).

    A fault is {e detectable} when it is a stuck-at on a DFF the
    lockstep comparator reads at every instruction boundary (the
    core's hooked architectural registers — PC, SP, SR, R4-R15 on
    MSP430), stuck at the complement of that register bit's value at
    the first compared boundary (after the first instruction) of an
    input the campaign co-simulates.  The faulty run then differs from
    the ISS at that boundary at the latest, so the fault is both
    activated and propagated to a compared net.  (A toggle alone does
    not make a register bit's stuck-at detectable: a high PC bit
    toggles once, when reset loads the entry point before any
    compared boundary, and its stuck-at-1 is equivalent.)  The
    campaign asserts a 100% kill rate over detectable faults; stuck-ats on other exercised gates
    and the remaining classes may be logically masked or functionally
    equivalent (a dead tie, a redundant gate) and are reported
    honestly as killed/survived. *)

module Netlist := Bespoke_netlist.Netlist

type kind =
  | Stuck_at of Bespoke_logic.Bit.t
  | Wrong_tie
  | Drop_gate
  | Swap_fn

type t = {
  id : int;
  kind : kind;
  gate : int;  (** gate id in the bespoke netlist *)
  detectable : bool;
      (** stuck-at on a boundary-observed state bit, against its value
          at the first compared boundary: guaranteed activated and
          propagated, must be killed *)
  desc : string;  (** human-readable site description *)
}

val kind_name : kind -> string
(** ["stuck-at-0"], ["stuck-at-1"], ["wrong-tie"], ["dropped-gate"],
    ["swapped-fn"]. *)

val inject : Netlist.t -> t -> Netlist.t
(** The faulty variant: the same netlist with the one gate replaced.
    The result still validates. *)

val generate :
  ?seed:int -> core:Bespoke_coreapi.Coredef.t -> n:int ->
  toggles:int array -> first_boundary:(int -> int) -> Netlist.t -> t list
(** Up to [n] faults, deterministically drawn (PRNG [seed], default 1)
    from the candidate sites of every kind, stuck-at sites first.
    [core] supplies the boundary-observed register nets that make a
    stuck-at detectable.  [toggles] are per-gate toggle counts from a
    fault-free co-simulated run of the same netlist; stuck-at sites
    are restricted to exercised gates.  [first_boundary r] is the
    ISS value of architectural register [r] at the first compared
    instruction boundary of an input the campaign co-simulates; a
    detectable fault is stuck at the complement of its bit there. *)
