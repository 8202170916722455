(* The paper's illustrative example (Section 3.3, Figure 7), on a
   hand-built circuit with the same structure and punchline:

   - inputs A, B, C, D; gates a, b feed gate c; whenever the
     "application" runs, gate c's other input is at its controlling
     value, so tmp2 is constant 1 across every execution path even
     though C is unknown;
   - gate activity analysis (multi-path ternary simulation with
     possibly-toggled marking) finds exactly that;
   - cutting replaces gate c with a constant-1 tie;
   - re-synthesis then (1) turns the XOR fed by the constant into an
     inverter, and (2) sweeps gates a and b, which toggle but no
     longer reach any output. *)

module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module B = Netlist.Builder
module Engine = Bespoke_sim.Engine
module Cut = Bespoke_core.Cut
module Resynth = Bespoke_core.Resynth

type circuit = {
  net : Netlist.t;
  a : int;  (* INV A        -> tmp0 *)
  b : int;  (* AND tmp0 B   -> tmp1 *)
  c : int;  (* NAND tmp1 C  -> tmp2 *)
  d : int;  (* XOR tmp2 D   -> OUT  *)
}

let build () =
  let nb = B.create () in
  let in_a = B.add_op nb Gate.Input [||] in
  let in_b = B.add_op nb Gate.Input [||] in
  let in_c = B.add_op nb Gate.Input [||] in
  let in_d = B.add_op nb Gate.Input [||] in
  let a = B.add_op nb Gate.Not [| in_a |] in
  let b = B.add_op nb Gate.And [| a; in_b |] in
  let c = B.add_op nb Gate.Nand [| b; in_c |] in
  let d = B.add_op nb Gate.Xor [| c; in_d |] in
  B.set_input_port nb "A" [| in_a |];
  B.set_input_port nb "B" [| in_b |];
  B.set_input_port nb "C" [| in_c |];
  B.set_input_port nb "D" [| in_d |];
  B.set_output_port nb "OUT" [| d |];
  { net = B.finish nb; a; b; c; d }

(* The "application": in every execution path, whenever B is driven
   high A is also high (so tmp1 = and(not A, B) stays 0 and tmp2 is
   pinned at 1); C and D vary freely.  We simulate the same two
   execution paths as the paper's figure. *)
let run_paths circ =
  let eng = Engine.create circ.net in
  let possibly = Array.make (Netlist.gate_count circ.net) false in
  let apply (av, bv, cv, dv) =
    Engine.set_input eng "A" [| av |];
    Engine.set_input eng "B" [| bv |];
    Engine.set_input eng "C" [| cv |];
    Engine.set_input eng "D" [| dv |];
    Engine.eval eng
  in
  let feed path =
    match path with
    | [] -> ()
    | first :: rest ->
      Engine.reset eng;
      (* cycle 0 establishes the activity baseline (the paper's table
         starts from the cycle-0 values, not from an all-X state) *)
      apply first;
      Engine.sync_prev eng;
      Engine.commit_cycle eng;
      List.iter
        (fun inputs ->
          apply inputs;
          Engine.commit_cycle eng)
        rest;
      Array.iteri
        (fun i p -> if p then possibly.(i) <- true)
        (Engine.possibly_toggled eng)
  in
  let one = Bit.One and zero = Bit.Zero and x = Bit.X in
  (* left execution path of Figure 7 *)
  feed
    [
      (one, zero, x, one);
      (one, zero, one, one);
      (one, zero, zero, one);
      (one, x, zero, one);
      (zero, zero, x, one);
    ];
  (* right execution path *)
  feed
    [
      (one, zero, x, one);
      (one, zero, one, zero);
      (one, x, zero, one);
      (zero, zero, zero, one);
      (x, zero, zero, zero);
    ];
  possibly

let test_analysis_finds_the_constant () =
  let circ = build () in
  let possibly = run_paths circ in
  Alcotest.(check bool) "gate a toggles" true possibly.(circ.a);
  Alcotest.(check bool) "gate d toggles" true possibly.(circ.d);
  Alcotest.(check bool) "tmp2 never toggles" false possibly.(circ.c)

let test_cut_and_resynthesis () =
  let circ = build () in
  let possibly = run_paths circ in
  let constants =
    Array.init (Netlist.gate_count circ.net) (fun id ->
        if id = circ.c then Bit.One else Bit.Zero)
  in
  let stitched = Cut.cut_and_stitch circ.net ~possibly_toggled:possibly ~constants in
  (* gate c is now a tie cell *)
  (match stitched.Netlist.gates.(circ.c).Gate.op with
  | Gate.Const Bit.One -> ()
  | op -> Alcotest.failf "gate c became %s" (Gate.op_name op));
  let final = Resynth.optimize stitched in
  (* the paper's punchline: one inverter remains *)
  Alcotest.(check int) "one gate remains" 1 (Netlist.num_gates final);
  let out = (Netlist.find_output final "OUT").(0) in
  (match final.Netlist.gates.(out).Gate.op with
  | Gate.Not -> ()
  | op -> Alcotest.failf "output driven by %s, not an inverter" (Gate.op_name op));
  (* and it still computes OUT = not D *)
  let eng = Engine.create final in
  Engine.reset eng;
  List.iter
    (fun dv ->
      Engine.set_input_int eng "D" dv;
      Engine.eval eng;
      Alcotest.(check (option int)) "out = not d" (Some (1 - dv))
        (Engine.read_int eng "OUT"))
    [ 0; 1 ]

let () =
  Alcotest.run "paper_example"
    [
      ( "figure7",
        [
          Alcotest.test_case "analysis finds the constant" `Quick
            test_analysis_finds_the_constant;
          Alcotest.test_case "cut, stitch, re-synthesize" `Quick
            test_cut_and_resynthesis;
        ] );
    ]
