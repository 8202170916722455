module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Cells = Bespoke_cells.Cells
module Report = Bespoke_power.Report
module Benchmark = Bespoke_programs.Benchmark

type t = {
  module_idle_fraction : (string * float) list;
  power_saving_fraction : float;
}

let evaluate ?netlist ?(seed = 1) ~core (b : Benchmark.t) =
  let net =
    match netlist with Some n -> n | None -> Runner.shared_netlist core
  in
  let ng = Netlist.gate_count net in
  let modules = Netlist.modules net in
  let midx = Hashtbl.create 16 in
  List.iteri (fun i m -> Hashtbl.replace midx m i) modules;
  let nmod = List.length modules in
  (* the module a gate's change makes active; -1 for pins and ties *)
  let active_module =
    Array.init ng (fun id ->
        match net.Netlist.gates.(id).Gate.op with
        | Gate.Input | Gate.Const _ -> -1
        | _ -> Hashtbl.find midx (Netlist.module_of net id))
  in
  let idle = Array.make nmod 0 in
  let active = Array.make nmod false in
  (* after every committed cycle, a module is idle unless one of its
     gates changed value since the previous cycle *)
  let attach eng =
    let prev = Array.init ng (Engine.value_code eng) in
    Engine.set_cycle_hook eng
      (Some
         (fun _ ->
           Array.fill active 0 nmod false;
           for id = 0 to ng - 1 do
             let c = Engine.value_code eng id in
             if c <> prev.(id) then begin
               prev.(id) <- c;
               let m = active_module.(id) in
               if m >= 0 then active.(m) <- true
             end
           done;
           Array.iteri (fun i a -> if not a then idle.(i) <- idle.(i) + 1) active))
  in
  let run =
    Runner.run_gate ~attach ~max_cycles:2_000_000 ~netlist:net ~core b ~seed
  in
  let toggles = run.Runner.toggles in
  let total_cycles = max 1 run.Runner.g_cycles in
  (* per-module leakage + clock power (the components the oracle can
     gate off in idle cycles) *)
  let leak_clk = Array.make nmod 0.0 in
  for id = 0 to ng - 1 do
    let g = net.Netlist.gates.(id) in
    match g.Gate.op with
    | Gate.Input | Gate.Const _ -> ()
    | _ ->
      let cell = Cells.of_gate g.Gate.op ~drive:g.Gate.drive in
      let i = active_module.(id) in
      let clk =
        match g.Gate.op with
        | Gate.Dff _ ->
          2.0 *. Cells.dff_clk_pin_cap_ff *. 1e8 *. 1e-6 (* nW at 100 MHz *)
        | _ -> 0.0
      in
      leak_clk.(i) <- leak_clk.(i) +. cell.Cells.leakage_nw +. clk
  done;
  let report =
    Report.power ~freq_hz:1e8 ~toggles ~cycles:total_cycles net
  in
  let saved =
    List.fold_left
      (fun acc m ->
        let i = Hashtbl.find midx m in
        let idle_frac = float_of_int idle.(i) /. float_of_int total_cycles in
        acc +. (idle_frac *. leak_clk.(i)))
      0.0 modules
  in
  {
    module_idle_fraction =
      List.map
        (fun m ->
          let i = Hashtbl.find midx m in
          (m, float_of_int idle.(i) /. float_of_int total_cycles))
        modules;
    power_saving_fraction = saved /. Float.max 1e-9 report.Report.total_nw;
  }
