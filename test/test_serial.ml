(* Round-trip properties for the plain-text netlist format: parsing a
   serialized netlist gives back an equivalent design, and a second
   serialization is byte-identical (fixpoint).  Checked on the stock
   CPU, on tailored (bespoke) netlists, and on fault-injected
   mutants — the shapes the verification campaign saves and reloads. *)

module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module Serial = Bespoke_netlist.Serial
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Activity = Bespoke_analysis.Activity
module Fault = Bespoke_verify.Fault
let core = Bespoke_cpu.Msp430.core

let roundtrip what net =
  let s1 = Serial.to_string net in
  let net' = Serial.of_string s1 in
  let s2 = Serial.to_string net' in
  Alcotest.(check string) (what ^ " fixpoint") s1 s2;
  Alcotest.(check int)
    (what ^ " gate count")
    (Array.length net.Netlist.gates)
    (Array.length net'.Netlist.gates)

let bespoke_of b =
  let report, net = Runner.analyze ~core b in
  let bespoke, _ =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  bespoke

let test_stock () = roundtrip "stock CPU" (Runner.shared_netlist core)

let test_bespoke () =
  List.iter
    (fun name -> roundtrip ("bespoke " ^ name) (bespoke_of (B.find name)))
    [ "mult"; "tHold" ]

let test_mutants () =
  let bespoke = bespoke_of (B.find "mult") in
  let toggles =
    (* every real gate "exercised" so generate draws from all kinds *)
    Array.map
      (fun (g : Bespoke_netlist.Gate.t) ->
        match g.Bespoke_netlist.Gate.op with
        | Bespoke_netlist.Gate.Input | Bespoke_netlist.Gate.Const _ -> 0
        | _ -> 1)
      bespoke.Netlist.gates
  in
  let faults = Fault.generate ~core ~seed:7 ~n:10 ~toggles
      ~first_boundary:(fun _ -> 0) bespoke in
  Alcotest.(check bool) "some faults drawn" true (List.length faults >= 5);
  List.iter
    (fun (f : Fault.t) ->
      let mutant = Fault.inject bespoke f in
      roundtrip
        (Printf.sprintf "mutant %d (%s)" f.Fault.id (Fault.kind_name f.Fault.kind))
        mutant)
    faults

let () =
  Alcotest.run "bespoke_serial"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "stock netlist" `Quick test_stock;
          Alcotest.test_case "bespoke netlists" `Quick test_bespoke;
          Alcotest.test_case "fault-injected mutants" `Quick test_mutants;
        ] );
    ]
