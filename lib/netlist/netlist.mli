(** Structural gate-level netlist.

    A netlist is an array of gates (each gate drives the net with its
    own id), plus named input/output ports and named internal nets
    ("hooks") that analysis tools may observe without the nets being
    design outputs. *)

type t = {
  gates : Gate.t array;
  input_ports : (string * int array) list;
      (** port name -> gate id per bit (each an [Input] gate), LSB first *)
  output_ports : (string * int array) list;
      (** port name -> driving gate id per bit, LSB first *)
  names : (string * int array) list;
      (** named internal nets (analysis hooks), LSB first *)
}
(** A netlist value is never mutated once built: no code writes into
    its gate, fanin or port arrays in place; a changed design is a new
    value (from {!Builder}, {!map_gates} or {!compact}).  Caches keyed
    on the physical value rely on this, e.g. the memoized
    {!Serial.hash}. *)

val gate_count : t -> int
val num_gates : t -> int
(** Gates that would exist in silicon: everything except [Input] and
    [Const] drivers (ports and tie-cells are free in our model). *)

val num_dffs : t -> int
val find_input : t -> string -> int array
val find_output : t -> string -> int array
val find_name : t -> string -> int array
(** Looks up [names], then output ports, then input ports.
    @raise Not_found if absent. *)

val mem_name : t -> string -> bool

val validate : t -> unit
(** Checks fanin arities, id ranges, and port references.
    @raise Failure with a diagnostic on the first violation. *)

val levelize : t -> int array
(** Topological order of all combinational (non-source) gates.  Source
    gates ([Input], [Const], [Dff]) are excluded.

    The order is a depth-first post-order over fanins with roots taken
    in ascending id, so it keeps the netlist's own order wherever that
    is already topological: on a forward netlist (every combinational
    gate reads only lower ids) it is exactly the ascending ids.
    Resynthesis rebuilds designs in this order, so tailored netlists
    keep the stock gate order that {!Bespoke_sim.Compile} finds word
    runs and adders in.
    @raise Failure on a combinational cycle, listing a gate on it. *)

val levels : t -> int array
(** [levels.(id)] = longest combinational path from a source to that
    gate's output (sources have level 0). *)

val fanout : t -> int array array
(** [fanout.(id)] = ids of gates reading gate [id]'s output. *)

val live_gates : t -> bool array
(** Gates whose output can reach (transitively, through combinational
    and sequential elements) an output port or a DFF data input.  Used
    by the dead-gate sweep: a gate that is not live can be removed even
    if it toggles (paper, Section 3.2/3.3: gates with floating outputs
    are removed at re-synthesis). *)

val module_of : t -> int -> string
(** Top-level component of the gate's module path ("" for top). *)

val modules : t -> string list
(** Sorted list of distinct top-level module names. *)

val names_of : t -> int -> string list
(** Reverse lookup: every name, output-port or input-port bit driven
    by gate [id], as ["name"] (1-bit nets) or ["name[i]"].  Sorted,
    deduplicated; empty for anonymous internal gates. *)

val find_bits : t -> string -> int array
(** Resolve a human gate reference: ["name"] gives all bits of the
    net (as {!find_name}), ["name\[i\]"] the single bit [i].
    @raise Not_found if the name is absent or the bit out of range. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : unit -> t
  val add : t -> Gate.t -> int
  (** Returns the new gate's id. *)

  val add_op :
    t -> ?module_path:string -> ?drive:int -> Gate.op -> int array -> int

  val gate : t -> int -> Gate.t
  val set : t -> int -> Gate.t -> unit
  (** Replace an already-added gate (used to patch DFF feedback). *)

  val size : t -> int
  val set_input_port : t -> string -> int array -> unit
  val set_output_port : t -> string -> int array -> unit
  val set_name : t -> string -> int array -> unit
  val finish : t -> netlist
  (** Validates before returning. *)
end

(** {1 Rewriting} *)

val map_gates : t -> (int -> Gate.t -> Gate.t) -> t
(** Pointwise gate replacement; ports and names are preserved.  The
    result is validated. *)

val compact : t -> keep:bool array -> t * int array
(** Renumber the netlist keeping only gates with [keep.(id)] true
    (input-port gates are always kept).  Fanin references to dropped
    gates are an error unless the dropped gate is a [Const]; dropped
    const references are re-materialized as shared tie cells.  Output
    ports and names are remapped; name bits whose driver vanished are
    remapped to tie cells (of the dropped constant's value, or X for a
    swept non-constant hook).
    Returns the new netlist and the old-id -> new-id map (-1 for
    dropped gates). *)

val pp_summary : Format.formatter -> t -> unit
