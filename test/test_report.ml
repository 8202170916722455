(* Provenance, attribution and savings-artifact tests: unit checks on
   the typed reasons plus an end-to-end run of the explained tailor
   flow on the smallest benchmark (mult, 78 analysis cycles). *)

module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Report = Bespoke_power.Report
module Provenance = Bespoke_report.Provenance
module Attribution = Bespoke_report.Attribution
module Artifact = Bespoke_report.Artifact
module B = Bespoke_programs.Benchmark
module Obs = Bespoke_obs.Obs
module Stats = Bespoke_obs.Stats
let core = Bespoke_cpu.Msp430.core

(* One shared analyze+tailor of mult for all integration tests. *)
let flow =
  lazy
    (let b = B.find "mult" in
     let report, net = Runner.analyze ~core b in
     let bespoke, stats, prov =
       Cut.tailor_explained net
         ~possibly_toggled:report.Activity.possibly_toggled
         ~constants:report.Activity.constant_values
     in
     (b, report, net, bespoke, stats, prov))

(* ---- reason labels (stable machine-readable tags) ---- *)

let test_reason_labels () =
  let check r label cut =
    Alcotest.(check string) "label" label (Provenance.reason_label r);
    Alcotest.(check bool) ("is_cut " ^ label) cut (Provenance.is_cut r)
  in
  check Provenance.Kept "kept" false;
  check (Provenance.Downsized (2, 1)) "downsized" false;
  check (Provenance.Never_toggled Bit.Zero) "never-toggled" true;
  check Provenance.Dead_fanout "dead-fanout" true;
  check Provenance.Const_folded "const-folded" true;
  check (Provenance.Merged 7) "merged" true

(* ---- provenance over the real flow ---- *)

let test_provenance_counts () =
  let _, _, net, _, stats, prov = Lazy.force flow in
  Alcotest.(check int) "kept = bespoke gates" stats.Cut.bespoke_gates
    (Provenance.kept_count prov);
  Alcotest.(check int) "kept + cut = original real gates"
    (Netlist.num_gates net)
    (Provenance.kept_count prov + Provenance.cut_count prov);
  let hist = Provenance.histogram prov in
  let count label = Option.value ~default:0 (List.assoc_opt label hist) in
  Alcotest.(check int) "never-toggled = stats.cut_gates" stats.Cut.cut_gates
    (count "never-toggled");
  Alcotest.(check int) "histogram sums to real gates" (Netlist.num_gates net)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 hist)

let test_provenance_classification () =
  let _, report, net, bespoke, _, prov = Lazy.force flow in
  Array.iteri
    (fun id (g : Gate.t) ->
      match prov.Provenance.reason.(id) with
      | None -> (
        (* only port pins and tie cells are unclassified *)
        match g.Gate.op with
        | Gate.Input | Gate.Const _ -> ()
        | op -> Alcotest.failf "real gate %d (%s) has no reason" id (Gate.op_name op))
      | Some (Provenance.Never_toggled v) ->
        Alcotest.(check bool) "cut gate did not toggle" false
          report.Activity.possibly_toggled.(id);
        Alcotest.(check bool) "stitched constant recorded" true
          (Bit.equal v report.Activity.constant_values.(id))
      | Some (Provenance.Kept | Provenance.Downsized _) ->
        let nid = prov.Provenance.new_id.(id) in
        Alcotest.(check bool) "kept gate has a bespoke image" true (nid >= 0);
        Alcotest.(check bool) "op preserved" true
          (Gate.op_equal g.Gate.op bespoke.Netlist.gates.(nid).Gate.op)
      | Some _ ->
        Alcotest.(check int) "cut gate has no bespoke image" (-1)
          prov.Provenance.new_id.(id))
    net.Netlist.gates

(* ---- first-toggle provenance and the execution tree ---- *)

let test_first_toggle_iff_possibly () =
  let _, report, _, _, _, _ = Lazy.force flow in
  Array.iteri
    (fun id ft ->
      Alcotest.(check bool)
        (Printf.sprintf "gate %d first_toggle iff possibly_toggled" id)
        report.Activity.possibly_toggled.(id)
        (ft <> None))
    report.Activity.first_toggle

let test_tree_well_formed () =
  let _, report, _, _, _, _ = Lazy.force flow in
  let tr = report.Activity.tree in
  Alcotest.(check bool) "tree non-empty" true (Array.length tr > 0);
  Alcotest.(check int) "root is node 0" 0 tr.(0).Activity.node_id;
  Alcotest.(check int) "root has no parent" (-1) tr.(0).Activity.parent;
  Array.iteri
    (fun i nd ->
      Alcotest.(check int) "node_id is the index" i nd.Activity.node_id;
      if i > 0 then
        Alcotest.(check bool) "parent precedes child" true
          (nd.Activity.parent >= 0 && nd.Activity.parent < i))
    tr;
  Alcotest.(check int) "node cycles sum to total"
    report.Activity.total_cycles
    (Array.fold_left (fun acc nd -> acc + nd.Activity.node_cycles) 0 tr);
  (* every first-toggle points into the tree *)
  Array.iter
    (function
      | None -> ()
      | Some ft ->
        Alcotest.(check bool) "first-toggle node exists" true
          (ft.Activity.ft_node >= 0 && ft.Activity.ft_node < Array.length tr))
    report.Activity.first_toggle

let test_tree_dot () =
  let _, report, _, _, _, _ = Lazy.force flow in
  let dot = Activity.tree_dot report in
  let has sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph" dot);
  Alcotest.(check bool) "root node drawn" true (has "n0 " dot);
  (* truncation stays well-formed *)
  let tiny = Activity.tree_dot ~max_nodes:1 report in
  Alcotest.(check bool) "truncated still a digraph" true (has "digraph" tiny)

(* ---- per-module attribution ---- *)

let test_attribution_totals () =
  let _, _, net, bespoke, _, _ = Lazy.force flow in
  let rows = Attribution.table ~original:net ~bespoke in
  match List.rev rows with
  | total :: rest when total.Attribution.module_name = "(total)" ->
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rest in
    let sumi f = List.fold_left (fun acc r -> acc + f r) 0 rest in
    Alcotest.(check int) "total gates original" (Netlist.num_gates net)
      total.Attribution.gates_original;
    Alcotest.(check int) "total gates bespoke" (Netlist.num_gates bespoke)
      total.Attribution.gates_bespoke;
    Alcotest.(check int) "rows sum to total (gates)"
      total.Attribution.gates_original
      (sumi (fun r -> r.Attribution.gates_original));
    Alcotest.(check (float 0.5)) "total area matches Report.area_um2"
      (Report.area_um2 net) total.Attribution.area_original;
    Alcotest.(check (float 0.5)) "bespoke area matches Report.area_um2"
      (Report.area_um2 bespoke) total.Attribution.area_bespoke;
    Alcotest.(check (float 0.5)) "rows sum to total (area)"
      total.Attribution.area_original
      (sum (fun r -> r.Attribution.area_original));
    Alcotest.(check (float 0.5)) "total leakage matches Report.leakage_nw"
      (Report.leakage_nw net) total.Attribution.leak_original
  | _ -> Alcotest.fail "attribution table has no (total) row"

(* ---- JSON artifact ---- *)

let entry_of_flow () =
  let b, report, net, bespoke, stats, prov = Lazy.force flow in
  {
    Artifact.name = b.B.name;
    group = "sensor";
    gates_original = stats.Cut.original_gates;
    gates_cut = stats.Cut.cut_gates;
    gates_bespoke = stats.Cut.bespoke_gates;
    area_original = stats.Cut.original_area;
    area_bespoke = stats.Cut.bespoke_area;
    leak_original = Report.leakage_nw net;
    leak_bespoke = Report.leakage_nw bespoke;
    critical_ps_original = 14000.0;
    critical_ps_bespoke = 9800.0;
    vmin = 0.8;
    paths = report.Activity.paths;
    merges = report.Activity.merges;
    prunes = report.Activity.prunes;
    escapes = report.Activity.escaped_paths;
    cycles = report.Activity.total_cycles;
    cut_reasons = Provenance.histogram prov;
    modules = Attribution.table ~original:net ~bespoke;
  }

(* The artifact passes the report reader (schema, savings arithmetic,
   cut-reason partition, attribution totals) and round-trips. *)
let test_artifact_json_parses () =
  let e = entry_of_flow () in
  match Stats.read ~name:"report" (Artifact.to_json [ e ]) with
  | Ok (Stats.Report [ bench ]) ->
    Alcotest.(check (option (float 0.0))) "gates.original round-trips"
      (Some (float_of_int e.Artifact.gates_original))
      (Option.bind (Obs.Json.member "gates" bench) (Obs.Json.mem_num "original"));
    Alcotest.(check (option int)) "all histogram entries serialized"
      (Some (List.length e.Artifact.cut_reasons))
      (Option.map List.length (Obs.Json.mem_obj "cut_reasons" bench))
  | Ok _ -> Alcotest.fail "expected a report with exactly one benchmark"
  | Error m -> Alcotest.failf "artifact rejected: %s" m

let test_analysis_json_parses () =
  let text =
    Artifact.analysis_to_json ~name:"mult" ~paths:1 ~merges:0 ~prunes:0
      ~escapes:0 ~cycles:78
      ~modules:[ ("frontend", 166, 219); ("execution", 1424, 1801) ]
  in
  match Obs.Json.parse text with
  | Error m -> Alcotest.failf "analyze json does not parse: %s" m
  | Ok j ->
    Alcotest.(check (option int)) "module rows" (Some 2)
      (Option.map List.length (Obs.Json.mem_arr "modules" j))

let () =
  Alcotest.run "bespoke_report"
    [
      ( "provenance",
        [
          Alcotest.test_case "reason labels" `Quick test_reason_labels;
          Alcotest.test_case "counts agree with cut stats" `Quick
            test_provenance_counts;
          Alcotest.test_case "per-gate classification" `Quick
            test_provenance_classification;
        ] );
      ( "activity",
        [
          Alcotest.test_case "first-toggle iff possibly-toggled" `Quick
            test_first_toggle_iff_possibly;
          Alcotest.test_case "execution tree well-formed" `Quick
            test_tree_well_formed;
          Alcotest.test_case "tree dot export" `Quick test_tree_dot;
        ] );
      ( "attribution",
        [ Alcotest.test_case "totals" `Quick test_attribution_totals ] );
      ( "artifact",
        [
          Alcotest.test_case "savings json parses" `Quick
            test_artifact_json_parses;
          Alcotest.test_case "analysis json parses" `Quick
            test_analysis_json_parses;
        ] );
    ]
