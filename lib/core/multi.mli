(** Multi-application bespoke designs (paper Section 3.5 / 5.2):
    the union of the per-application usable-gate sets is kept; gates in
    no application's set are cut.

    Also the in-field-update checks of Section 5.3: a new binary is
    supported by an existing bespoke design iff its usable gates are a
    subset of the design's gates. *)

module Netlist := Bespoke_netlist.Netlist

val union_toggled : bool array list -> bool array
(** Gates toggled by any of the applications: what a multi-application
    design keeps. *)

val supported : design_toggled:bool array -> app_toggled:bool array -> bool
(** Does a design tailored to [design_toggled] run an application
    needing [app_toggled]?  (Subset check.) *)

val tailor_multi :
  Netlist.t ->
  reports:(bool array * Bespoke_logic.Bit.t array) list ->
  Netlist.t * Cut.stats
(** Cut using the union of usable gates over all the applications.
    The constant values agree across reports wherever a gate is
    commonly untoggled (they all equal the reset value), so the first
    report's constants are used. *)

val usable_gate_count : Netlist.t -> bool array -> int

val bitset_of : bool array -> int array
(** Pack a toggled mask into 63-bit words (for fast subset unions). *)

val popcount : int array -> int

val sweep :
  ?jobs:int -> int array array -> (int * int) array * (int * int) array
(** [sweep sets] enumerates every nonempty subset of the [n]
    applications (bitsets from {!bitset_of}, all the same length) and
    returns [(best, worst)]: for each subset size [k] in [1..n],
    [best.(k)] / [worst.(k)] is [(gate count, subset bitmask)] of the
    subset with the fewest / most union gates.  Ties keep the smallest
    subset bitmask, independent of [jobs] (default
    {!Pool.default_jobs}) — the enumeration is chunked across the
    domain pool but merged deterministically.  Entries at index 0 are
    [(max_int, 0)] / [(min_int, 0)]. *)
