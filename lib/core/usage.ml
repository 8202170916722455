module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist

type module_row = { module_name : string; total : int; active : int }

let is_real (g : Gate.t) =
  match g.Gate.op with Gate.Input | Gate.Const _ -> false | _ -> true

let per_module net (toggled : bool array) =
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun id (g : Gate.t) ->
      if is_real g then begin
        let m = Netlist.module_of net id in
        let total, active =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl m)
        in
        Hashtbl.replace tbl m
          (total + 1, if toggled.(id) then active + 1 else active)
      end)
    net.Netlist.gates;
  let rows =
    Hashtbl.fold
      (fun module_name (total, active) acc ->
        { module_name; total; active } :: acc)
      tbl []
    |> List.sort (fun a b -> String.compare a.module_name b.module_name)
  in
  let sum_total = List.fold_left (fun acc r -> acc + r.total) 0 rows in
  let sum_active = List.fold_left (fun acc r -> acc + r.active) 0 rows in
  rows @ [ { module_name = "(total)"; total = sum_total; active = sum_active } ]

let usable_fraction net toggled =
  let total = ref 0 and active = ref 0 in
  Array.iteri
    (fun id (g : Gate.t) ->
      if is_real g then begin
        incr total;
        if toggled.(id) then incr active
      end)
    net.Netlist.gates;
  if !total = 0 then 0.0 else float_of_int !active /. float_of_int !total

type diff = {
  common_untoggled : int;
  unique_a : int;
  unique_b : int;
  per_module_unique_a : (string * int) list;
  per_module_unique_b : (string * int) list;
}

let compare_unused net (ta : bool array) (tb : bool array) =
  let common = ref 0 and ua = ref 0 and ub = ref 0 in
  let ma : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let mb : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let bump tbl m = Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m)) in
  Array.iteri
    (fun id (g : Gate.t) ->
      if is_real g then
        match ta.(id), tb.(id) with
        | false, false -> incr common
        | false, true ->
          incr ua;
          bump ma (Netlist.module_of net id)
        | true, false ->
          incr ub;
          bump mb (Netlist.module_of net id)
        | true, true -> ())
    net.Netlist.gates;
  let dump tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    common_untoggled = !common;
    unique_a = !ua;
    unique_b = !ub;
    per_module_unique_a = dump ma;
    per_module_unique_b = dump mb;
  }

let pp_per_module fmt rows =
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-16s %5d / %5d (%.1f%%)@."
        r.module_name r.active r.total
        (if r.total = 0 then 0.0
         else 100.0 *. float_of_int r.active /. float_of_int r.total))
    rows
