(** Plain-text netlist serialization.

    A stable, diff-friendly format so tailored designs can be saved,
    versioned and reloaded without re-running the analysis:

    {v
    bespoke-netlist 1
    gates <count>
    g <op> <drive> <module-path-or-“-”> <fanin ids...>
    input <name> <gate ids...>
    output <name> <gate ids...>
    name <name> <gate ids...>
    end
    v} *)

val to_string : Netlist.t -> string

exception Parse_error of { line : int; message : string }

val of_string : string -> Netlist.t
(** Validates the result.  @raise Parse_error on malformed input. *)

val save : string -> Netlist.t -> unit
val load : string -> Netlist.t

(** {1 Gate sets}

    A usable-gate set (one flag per gate of the {e original} design)
    saved alongside a bespoke netlist enables the paper's in-field
    update check: a new binary is supported iff its usable set is a
    subset of the recorded one.  Format: a header line with the count,
    then the flags packed as hex nibbles, 64 per line. *)

val gate_set_to_string : bool array -> string
val gate_set_of_string : string -> bool array
val save_gate_set : string -> bool array -> unit
val load_gate_set : string -> bool array

val hash : Netlist.t -> string
(** Hex digest of the canonical serialization — a stable design
    identity used to key memoization caches (the compiled-simulation
    engine's design cache in particular).  Equal for structurally
    identical netlists, different after any gate/port/name change.
    Computed once per physical netlist value and memoized (domain-safe;
    see the immutability contract in {!Netlist.t}). *)
