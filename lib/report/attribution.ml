module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Report = Bespoke_power.Report

type row = {
  module_name : string;
  gates_original : int;
  gates_bespoke : int;
  area_original : float;
  area_bespoke : float;
  leak_original : float;
  leak_bespoke : float;
}

let gates_cut r = r.gates_original - r.gates_bespoke

let is_real (g : Gate.t) =
  match g.Gate.op with Gate.Input | Gate.Const _ -> false | _ -> true

(* module -> (gates, area, leakage) over one netlist *)
let tally net =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun id (g : Gate.t) ->
      let m = Netlist.module_of net id in
      let n0, a0, l0 =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl m)
      in
      Hashtbl.replace tbl m
        ( (if is_real g then n0 + 1 else n0),
          a0 +. Report.gate_area_um2 net id,
          l0 +. Report.gate_leakage_nw net id ))
    net.Netlist.gates;
  tbl

let table ~original ~bespoke =
  let a = tally original and b = tally bespoke in
  let names = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) b;
  let rows =
    Hashtbl.fold
      (fun module_name () acc ->
        let n0, a0, l0 =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt a module_name)
        in
        let n1, a1, l1 =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt b module_name)
        in
        {
          module_name;
          gates_original = n0;
          gates_bespoke = n1;
          area_original = a0;
          area_bespoke = a1;
          leak_original = l0;
          leak_bespoke = l1;
        }
        :: acc)
      names []
    |> List.sort (fun x y -> String.compare x.module_name y.module_name)
  in
  let total =
    List.fold_left
      (fun t r ->
        {
          t with
          gates_original = t.gates_original + r.gates_original;
          gates_bespoke = t.gates_bespoke + r.gates_bespoke;
          area_original = t.area_original +. r.area_original;
          area_bespoke = t.area_bespoke +. r.area_bespoke;
          leak_original = t.leak_original +. r.leak_original;
          leak_bespoke = t.leak_bespoke +. r.leak_bespoke;
        })
      {
        module_name = "(total)";
        gates_original = 0;
        gates_bespoke = 0;
        area_original = 0.0;
        area_bespoke = 0.0;
        leak_original = 0.0;
        leak_bespoke = 0.0;
      }
      rows
  in
  rows @ [ total ]

let pp fmt rows =
  Format.fprintf fmt "  %-16s %13s %18s %18s@."
    "module" "gates kept/tot" "area kept/tot um2" "leak kept/tot nW";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-16s %6d /%6d %8.0f /%8.0f %8.1f /%8.1f@."
        r.module_name r.gates_bespoke r.gates_original r.area_bespoke
        r.area_original r.leak_bespoke r.leak_original)
    rows
