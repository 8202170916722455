(* Why resynthesis needs no sequential-constant pass: ternary
   evaluation is monotone and every state the analysis explores is at
   least as specific as the all-inputs-X state of the reference
   stuck-DFF fixpoint ([Sweep.stuck_dffs]), so a DFF that fixpoint
   calls stuck never changes in the analysis and the cut already ties
   it to its reset value.  [stuck_dff net r] checks that on the raw
   cut of [r]: [None], or the first DFF the fixpoint still finds stuck,
   with the analysis' provenance for it. *)

module Netlist = Bespoke_netlist.Netlist
module Activity = Bespoke_analysis.Activity
module Cut = Bespoke_core.Cut
module Sweep = Bespoke_oracle.Sweep

let stuck_dff net (r : Activity.report) =
  let raw =
    Cut.cut_and_stitch net ~possibly_toggled:r.Activity.possibly_toggled
      ~constants:r.Activity.constant_values
  in
  Sweep.stuck_dffs raw
  |> Array.to_seqi
  |> Seq.find_map (fun (id, stuck) ->
         if not stuck then None
         else
           Some
             (Printf.sprintf
                "raw cut keeps DFF %d [%s] (module %S) stuck at its reset \
                 value: %s"
                id
                (String.concat ", " (Netlist.names_of net id))
                (Netlist.module_of net id)
                (match r.Activity.first_toggle.(id) with
                | Some ft ->
                  Printf.sprintf
                    "the analysis marked it possibly toggled at cycle %d, \
                     tree node %d, pc 0x%x"
                    ft.Activity.ft_cycle ft.Activity.ft_node ft.Activity.ft_pc
                | None -> "the analysis never marked it toggled")))
