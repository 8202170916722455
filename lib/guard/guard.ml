module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Report = Bespoke_power.Report
module Provenance = Bespoke_report.Provenance
module Cut = Bespoke_core.Cut
module Runner = Bespoke_core.Runner
module Obs = Bespoke_obs.Obs

let m_assumptions = Obs.Metrics.counter "guard.assumptions"
let m_monitors = Obs.Metrics.counter "guard.monitors"
let m_watchers = Obs.Metrics.counter "guard.watchers"
let m_cycles = Obs.Metrics.counter "guard.cycles"
let m_violations = Obs.Metrics.counter "guard.violations"
let m_exact_scans = Obs.Metrics.counter "guard.exact_scans"

(* {1 Planning} *)

type source = Engine.source = Net of int | Tie of Bit.t

type monitor = { m_gate : int; m_check : Engine.check }

type plan = {
  p_original : Netlist.t;
  p_bespoke : Netlist.t;
  p_prov : Provenance.t;
  p_assumptions : Cut.assumption list;
  p_monitors : monitor list;
  p_implied : int;
  p_unmonitorable : int;
}

(* Original input-port gate id -> bespoke input-port gate id, matched
   by port name and bit position (ports survive tailoring). *)
let input_map (original : Netlist.t) (bespoke : Netlist.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (name, ids) ->
      match List.assoc_opt name bespoke.Netlist.input_ports with
      | Some bids when Array.length bids = Array.length ids ->
        Array.iteri (fun i oid -> Hashtbl.replace tbl oid bids.(i)) ids
      | _ -> ())
    original.Netlist.input_ports;
  tbl

(* Where original gate [f]'s value lives in the bespoke design, if the
   bespoke design still computes it. *)
let map_source (original : Netlist.t) (prov : Provenance.t) inputs f =
  if prov.Provenance.new_id.(f) >= 0 then Some (Net prov.Provenance.new_id.(f))
  else
    match original.Netlist.gates.(f).Gate.op with
    | Gate.Const b -> Some (Tie b)
    | Gate.Input -> (
      match Hashtbl.find_opt inputs f with
      | Some id -> Some (Net id)
      | None -> None)
    | _ -> (
      match prov.Provenance.reason.(f) with
      | Some (Provenance.Never_toggled c) -> Some (Tie c)
      | Some (Provenance.Merged m) -> Some (Net m)
      | _ -> None)

let plan ~original ~bespoke ~prov ~possibly_toggled ~constants =
  let assumptions = Cut.assumptions original ~possibly_toggled ~constants in
  let inputs = input_map original bespoke in
  let monitors = ref [] in
  let implied = ref 0 in
  let unmonitorable = ref 0 in
  List.iter
    (fun { Cut.a_gate; a_const } ->
      let g = original.Netlist.gates.(a_gate) in
      let mapped = Array.map (map_source original prov inputs) g.Gate.fanin in
      if Array.exists Option.is_none mapped then incr unmonitorable
      else
        let fanin = Array.map Option.get mapped in
        if Array.for_all (function Tie _ -> true | Net _ -> false) fanin then
          (* interior assumption: every fanin is itself tied off, so
             the ties alone guarantee it — nothing to watch *)
          incr implied
        else
          monitors :=
            {
              m_gate = a_gate;
              m_check = { Engine.c_op = g.Gate.op; c_fanin = fanin; c_assumed = a_const };
            }
            :: !monitors)
    assumptions;
  Obs.Metrics.add m_assumptions (List.length assumptions);
  Obs.Metrics.add m_monitors (List.length !monitors);
  {
    p_original = original;
    p_bespoke = bespoke;
    p_prov = prov;
    p_assumptions = assumptions;
    p_monitors = List.rev !monitors;
    p_implied = !implied;
    p_unmonitorable = !unmonitorable;
  }

let plan_of_tailored (t : Runner.tailored) =
  let report = t.Runner.report in
  plan ~original:t.Runner.original ~bespoke:t.Runner.bespoke ~prov:t.Runner.prov
    ~possibly_toggled:report.Bespoke_analysis.Activity.possibly_toggled
    ~constants:report.Bespoke_analysis.Activity.constant_values

(* {1 Hardware instrumentation} *)

type instrumented = {
  i_design : Netlist.t;
  i_monitors : monitor array;
  i_base_gates : int;
  i_added_gates : int;
  i_added_dffs : int;
}

let instrument plan =
  let bespoke = plan.p_bespoke in
  let base = Array.length bespoke.Netlist.gates in
  let extra = ref [] in
  let count = ref 0 in
  let add op fanin =
    let id = base + !count in
    extra := { Gate.op; fanin; module_path = "guard"; drive = 0 } :: !extra;
    incr count;
    id
  in
  let ties = Hashtbl.create 4 in
  let tie b =
    match Hashtbl.find_opt ties b with
    | Some id -> id
    | None ->
      let id = add (Gate.Const b) [||] in
      Hashtbl.add ties b id;
      id
  in
  let src = function Net id -> id | Tie b -> tie b in
  let monitors = Array.of_list plan.p_monitors in
  let names = ref [] in
  let violation =
    if Array.length monitors = 0 then tie Bit.Zero
    else begin
      (* armed is 0 during the reset settle and 1 from the first clock
         edge on, so settling noise cannot trip a sticky bit *)
      let armed = add (Gate.Dff Bit.Zero) [| tie Bit.One |] in
      let mismatch =
        Array.map
          (fun { m_check = c; _ } ->
            let fan = Array.map src c.Engine.c_fanin in
            let recomp =
              match c.c_op with
              | Gate.Dff _ ->
                (* a cut DFF would toggle iff its D input leaves the
                   assumed constant: monitor the next-state function *)
                add Gate.Buf fan
              | op -> add op fan
            in
            match c.c_assumed with
            | Bit.One -> add Gate.Not [| recomp |]
            | Bit.Zero | Bit.X -> recomp)
          monitors
      in
      let sticky =
        Array.map
          (fun mi ->
            let gated = add Gate.And [| mi; armed |] in
            (* self-loop: or_id reads the DFF added right after it *)
            let or_id = base + !count in
            let dff_id = or_id + 1 in
            let _ = add Gate.Or [| dff_id; gated |] in
            let dff = add (Gate.Dff Bit.Zero) [| or_id |] in
            assert (dff = dff_id);
            dff)
          mismatch
      in
      let rec reduce = function
        | [] -> tie Bit.Zero
        | [ x ] -> x
        | xs ->
          let rec pair = function
            | a :: b :: tl -> add Gate.Or [| a; b |] :: pair tl
            | tl -> tl
          in
          reduce (pair xs)
      in
      names :=
        [
          ("guard_mismatch", mismatch);
          ("guard_sticky", sticky);
          ("guard_armed", [| armed |]);
        ];
      reduce (Array.to_list sticky)
    end
  in
  let design =
    {
      bespoke with
      Netlist.gates =
        Array.append bespoke.Netlist.gates (Array.of_list (List.rev !extra));
      output_ports =
        bespoke.Netlist.output_ports @ [ ("guard_violation", [| violation |]) ];
      names = bespoke.Netlist.names @ !names;
    }
  in
  Netlist.validate design;
  {
    i_design = design;
    i_monitors = monitors;
    i_base_gates = Netlist.num_gates bespoke;
    i_added_gates = Netlist.num_gates design - Netlist.num_gates bespoke;
    i_added_dffs = Netlist.num_dffs design - Netlist.num_dffs bespoke;
  }

type hw_stats = {
  h_monitors : int;
  h_implied : int;
  h_unmonitorable : int;
  h_added_gates : int;
  h_added_dffs : int;
  h_area_um2 : float;
  h_area_pct : float;
  h_leakage_nw : float;
  h_leakage_pct : float;
}

let hw_stats plan inst =
  let base_area = Report.area_um2 plan.p_bespoke in
  let base_leak = Report.leakage_nw plan.p_bespoke in
  let area = Report.area_um2 inst.i_design -. base_area in
  let leak = Report.leakage_nw inst.i_design -. base_leak in
  {
    h_monitors = Array.length inst.i_monitors;
    h_implied = plan.p_implied;
    h_unmonitorable = plan.p_unmonitorable;
    h_added_gates = inst.i_added_gates;
    h_added_dffs = inst.i_added_dffs;
    h_area_um2 = area;
    h_area_pct = 100.0 *. area /. base_area;
    h_leakage_nw = leak;
    h_leakage_pct = 100.0 *. leak /. base_leak;
  }

let pp_hw_stats fmt h =
  Format.fprintf fmt
    "%d monitor(s) (%d implied, %d unmonitorable), +%d gate(s) (%d DFF), \
     +%.0f um2 (+%.2f%%), +%.1f nW leakage (+%.2f%%)"
    h.h_monitors h.h_implied h.h_unmonitorable h.h_added_gates h.h_added_dffs
    h.h_area_um2 h.h_area_pct h.h_leakage_nw h.h_leakage_pct

(* {1 Shadow watchers} *)

type violation = {
  v_cycle : int;
  v_gate : int;
  v_assumed : Bit.t;
  v_observed : Bit.t;
}

type watcher = {
  gates : int array;  (* original gate id of each check *)
  checks : Engine.check array;
  tripped : Bytes.t;
  mutable listed : violation list;  (* reversed *)
  mutable listed_n : int;
  mutable total : int;
  mutable cycles : int;
}

let max_listed = 10_000

let make_watcher gates checks =
  {
    gates;
    checks;
    tripped = Bytes.make (Array.length checks) '\000';
    listed = [];
    listed_n = 0;
    total = 0;
    cycles = 0;
  }

(* watch_original reads each assumption net itself: a Buf check *)
let watch_original plan =
  let a = Array.of_list plan.p_assumptions in
  make_watcher
    (Array.map (fun x -> x.Cut.a_gate) a)
    (Array.map
       (fun { Cut.a_gate; a_const } ->
         { Engine.c_op = Gate.Buf; c_fanin = [| Net a_gate |]; c_assumed = a_const })
       a)

let watch_bespoke plan =
  let ms = Array.of_list plan.p_monitors in
  make_watcher
    (Array.map (fun m -> m.m_gate) ms)
    (Array.map (fun m -> m.m_check) ms)

(* The exact pass over the checks at a committed cycle, run only when
   the packed program reports a violation: it finds which checks
   convict, counts them and records first offences in check order. *)
let scan w eng cycle =
  Obs.Metrics.incr m_exact_scans;
  for i = 0 to Array.length w.checks - 1 do
    let c = Array.unsafe_get w.checks i in
    let code = Engine.check_code eng c in
    if Engine.convicts c code then begin
      w.total <- w.total + 1;
      Obs.Metrics.incr m_violations;
      if Bytes.get w.tripped i = '\000' then begin
        Bytes.set w.tripped i '\001';
        if w.listed_n < max_listed then begin
          w.listed <-
            {
              v_cycle = cycle;
              v_gate = w.gates.(i);
              v_assumed = c.Engine.c_assumed;
              v_observed = Bit.of_int_exn code;
            }
            :: w.listed;
          w.listed_n <- w.listed_n + 1
        end
      end
    end
  done

let attach w eng =
  Obs.Metrics.incr m_watchers;
  let packed = Engine.checks eng w.checks in
  Engine.set_cycle_hook eng
    (Some
       (fun cycle ->
         w.cycles <- w.cycles + 1;
         Obs.Metrics.incr m_cycles;
         if Engine.any_violated packed then scan w eng cycle))

let violations w = List.rev w.listed
let total_violations w = w.total
let cycles_checked w = w.cycles
let clean w = w.total = 0

let violating_gates w =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) w.tripped;
  !n

(* {1 Replay} *)

type replay = {
  rp_result : (Runner.gate_outcome, string) result;
  rp_hw_violation : Bit.t option;
}

let replay ?(max_cycles = 300_000) w ~core ~netlist b ~seed =
  let eng = ref None in
  let result =
    try
      Ok
        (Runner.run_gate
           ~attach:(fun e ->
             eng := Some e;
             attach w e)
           ~netlist ~max_cycles ~core b ~seed)
    with Failure msg -> Error msg
  in
  let hw_violation =
    match !eng with
    | Some e when List.mem_assoc "guard_violation" netlist.Netlist.output_ports
      ->
      Some (Engine.value e (Netlist.find_output netlist "guard_violation").(0))
    | _ -> None
  in
  { rp_result = result; rp_hw_violation = hw_violation }

(* {1 bespoke-guard/v1 stream} *)

let schema = "bespoke-guard/v1"

module J = Obs.Json

let header_jsonl plan ~core ~design ~workload ~mode =
  J.obj
    [
      ("schema", J.str schema);
      ("core", J.str core);
      ("design", J.str design);
      ("workload", J.str workload);
      ("mode", J.str mode);
      ("assumptions", J.int (List.length plan.p_assumptions));
      ("monitors", J.int (List.length plan.p_monitors));
      ("implied", J.int plan.p_implied);
      ("unmonitorable", J.int plan.p_unmonitorable);
    ]

let reason_of plan gate =
  match plan.p_prov.Provenance.reason.(gate) with
  | Some r ->
    (Provenance.reason_label r, Format.asprintf "%a" Provenance.pp_reason r)
  | None -> ("none", "port pin or tie cell")

let violation_jsonl plan v =
  let names = Netlist.names_of plan.p_original v.v_gate in
  let modname = Netlist.module_of plan.p_original v.v_gate in
  let label, detail = reason_of plan v.v_gate in
  J.obj
    [
      ("cycle", J.int v.v_cycle);
      ("gate", J.int v.v_gate);
      ("names", J.arr (List.map J.str names));
      ("module", J.str modname);
      ("assumed", J.str (String.make 1 (Bit.to_char v.v_assumed)));
      ("observed", J.str (String.make 1 (Bit.to_char v.v_observed)));
      ("reason", J.str label);
      ("detail", J.str detail);
    ]

let summary_jsonl w =
  J.obj
    [
      ("summary", J.bool true);
      ("cycles", J.int w.cycles);
      ("violations", J.int w.total);
      ("violating_gates", J.int (violating_gates w));
      ("clean", J.bool (clean w));
    ]

let write_stream oc plan ~core ~design ~workload ~mode w =
  output_string oc (header_jsonl plan ~core ~design ~workload ~mode);
  output_char oc '\n';
  List.iter
    (fun v ->
      output_string oc (violation_jsonl plan v);
      output_char oc '\n')
    (violations w);
  output_string oc (summary_jsonl w);
  output_char oc '\n'

let pp_violation plan fmt v =
  let names = Netlist.names_of plan.p_original v.v_gate in
  let modname = Netlist.module_of plan.p_original v.v_gate in
  let _, detail = reason_of plan v.v_gate in
  Format.fprintf fmt "cycle %d: gate %d%s%s assumed %c, observed %c — %s"
    v.v_cycle v.v_gate
    (if names = [] then "" else " (aka " ^ String.concat ", " names ^ ")")
    (if modname = "" then "" else " in " ^ modname)
    (Bit.to_char v.v_assumed) (Bit.to_char v.v_observed) detail
