(** The coarse-grained, module-level bespoke baseline (paper Fig 12):
    an Xtensa-like configuration flow that can only drop a whole RTL
    module, and only when the gate activity analysis shows {e no} gate
    of that module is usable by the application. *)

module Netlist := Bespoke_netlist.Netlist

val prune :
  Netlist.t -> possibly_toggled:bool array ->
  constants:Bespoke_logic.Bit.t array ->
  Netlist.t * string list
(** Cut only the gates of wholly-unusable modules (stitching their
    constant outputs), then re-synthesize.  Returns the design and the
    list of removed modules. *)
