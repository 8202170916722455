module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module B = Netlist.Builder

(* A tiny hand-built netlist:
   in a, b; n1 = a & b; n2 = ~n1; dff q <- n2; out = q ^ n1 *)
let tiny () =
  let b = B.create () in
  let a_in = B.add_op b Gate.Input [||] in
  let b_in = B.add_op b Gate.Input [||] in
  let n1 = B.add_op b Gate.And [| a_in; b_in |] in
  let n2 = B.add_op b Gate.Not [| n1 |] in
  let q = B.add_op b (Gate.Dff Bit.Zero) [| n2 |] in
  let out = B.add_op b Gate.Xor [| q; n1 |] in
  B.set_input_port b "a" [| a_in |];
  B.set_input_port b "b" [| b_in |];
  B.set_output_port b "out" [| out |];
  (B.finish b, a_in, b_in, n1, n2, q, out)

let test_counts () =
  let n, _, _, _, _, _, _ = tiny () in
  Alcotest.(check int) "gate_count" 6 (Netlist.gate_count n);
  Alcotest.(check int) "num_gates (no inputs)" 4 (Netlist.num_gates n);
  Alcotest.(check int) "num_dffs" 1 (Netlist.num_dffs n)

let test_levelize () =
  let n, _, _, n1, n2, _, out = tiny () in
  let order = Array.to_list (Netlist.levelize n) in
  Alcotest.(check int) "comb gates" 3 (List.length order);
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  Alcotest.(check bool) "n1 before n2" true (pos n1 < pos n2);
  Alcotest.(check bool) "n1 before out" true (pos n1 < pos out)

(* A random netlist drawn from [seed].  Each combinational gate reads
   only gates of lower rank, so the netlist is acyclic; DFFs read any
   gate.  On a forward netlist the rank is the id; otherwise the ranks
   are a random permutation, so fanins also point at higher ids. *)
let random_netlist ~forward seed =
  let rs = Random.State.make [| seed |] in
  let ng = 2 + Random.State.int rs 60 in
  let rank = Array.init ng Fun.id in
  if not forward then
    for i = ng - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let t = rank.(i) in
      rank.(i) <- rank.(j);
      rank.(j) <- t
    done;
  let by_rank = Array.make ng 0 in
  Array.iteri (fun id r -> by_rank.(r) <- id) rank;
  let b = B.create () in
  for id = 0 to ng - 1 do
    let r = rank.(id) in
    let op =
      if r = 0 then Gate.Input
      else
        match Random.State.int rs 8 with
        | 0 -> Gate.Input
        | 1 -> Gate.Const Bit.One
        | 2 -> Gate.Dff Bit.Zero
        | 3 -> Gate.Not
        | 4 -> Gate.And
        | 5 -> Gate.Xor
        | 6 -> Gate.Mux
        | _ -> Gate.Or
    in
    let pick () =
      match op with
      | Gate.Dff _ -> Random.State.int rs ng
      | _ -> by_rank.(Random.State.int rs r)
    in
    let fanin = Array.init (Gate.arity op) (fun _ -> pick ()) in
    ignore (B.add b { Gate.op; fanin; module_path = ""; drive = 0 })
  done;
  B.finish b

(* [levelize] lists every combinational gate once, after its
   combinational fanins, and on a forward netlist in ascending id. *)
let prop_levelize (forward, seed) =
  let n = random_netlist ~forward seed in
  let ng = Netlist.gate_count n in
  let order = Netlist.levelize n in
  let pos = Array.make ng (-1) in
  Array.iteri
    (fun i id ->
      if pos.(id) >= 0 then QCheck.Test.fail_reportf "gate %d listed twice" id;
      pos.(id) <- i)
    order;
  Array.iteri
    (fun id (g : Gate.t) ->
      if Gate.is_source g then begin
        if pos.(id) >= 0 then QCheck.Test.fail_reportf "source %d listed" id
      end
      else begin
        if pos.(id) < 0 then QCheck.Test.fail_reportf "gate %d missing" id;
        Array.iter
          (fun f ->
            if (not (Gate.is_source n.Netlist.gates.(f))) && pos.(f) > pos.(id)
            then QCheck.Test.fail_reportf "gate %d before its fanin %d" id f)
          g.Gate.fanin
      end)
    n.Netlist.gates;
  let ascending =
    List.filter
      (fun id -> not (Gate.is_source n.Netlist.gates.(id)))
      (List.init ng Fun.id)
  in
  if forward && Array.to_list order <> ascending then
    QCheck.Test.fail_reportf "forward netlist reordered";
  true

let test_levelize_prop =
  QCheck.Test.make ~name:"levelize: topological, ascending when forward"
    ~count:500
    QCheck.(pair bool (int_bound 1_000_000))
    prop_levelize

let test_levels () =
  let n, a, _, n1, n2, q, out = tiny () in
  let lvl = Netlist.levels n in
  Alcotest.(check int) "input level" 0 lvl.(a);
  Alcotest.(check int) "dff level" 0 lvl.(q);
  Alcotest.(check int) "and level" 1 lvl.(n1);
  Alcotest.(check int) "not level" 2 lvl.(n2);
  Alcotest.(check int) "xor level" 2 lvl.(out)

let test_fanout () =
  let n, a, _, n1, _, _, _ = tiny () in
  let fo = Netlist.fanout n in
  Alcotest.(check int) "a fanout" 1 (Array.length fo.(a));
  Alcotest.(check int) "n1 fanout" 2 (Array.length fo.(n1))

let test_cycle_detect () =
  (* gate 0 references gate 1, gate 1 references gate 0: cycle *)
  let b = B.create () in
  let g0 = B.add b { Gate.op = Gate.And; fanin = [| 1; 1 |]; module_path = ""; drive = 0 } in
  let g1 = B.add b { Gate.op = Gate.Not; fanin = [| g0 |]; module_path = ""; drive = 0 } in
  ignore g1;
  let n = B.finish b in
  Alcotest.check_raises "cycle"
    (Failure "Netlist.levelize: combinational cycle (gate 0, and, module )")
    (fun () -> ignore (Netlist.levelize n))

let test_live_gates () =
  let b = B.create () in
  let a = B.add_op b Gate.Input [||] in
  let used = B.add_op b Gate.Not [| a |] in
  let dead = B.add_op b Gate.Not [| used |] in
  B.set_input_port b "a" [| a |];
  B.set_output_port b "out" [| used |];
  let n = B.finish b in
  let live = Netlist.live_gates n in
  Alcotest.(check bool) "used live" true live.(used);
  Alcotest.(check bool) "dead not live" false live.(dead);
  Alcotest.(check bool) "input live" true live.(a)

let test_compact () =
  let b = B.create () in
  let a = B.add_op b Gate.Input [||] in
  let konst = B.add_op b (Gate.Const Bit.One) [||] in
  let dead = B.add_op b Gate.Not [| a |] in
  let out = B.add_op b Gate.And [| a; konst |] in
  B.set_input_port b "a" [| a |];
  B.set_output_port b "out" [| out |];
  B.set_name b "hook" [| konst |];
  let n = B.finish b in
  let keep = Array.make (Netlist.gate_count n) true in
  keep.(dead) <- false;
  keep.(konst) <- false;
  let n', remap = Netlist.compact n ~keep in
  Alcotest.(check int) "dropped" (-1) remap.(dead);
  Alcotest.(check bool) "valid" true
    (match Netlist.validate n' with () -> true);
  (* The const reference was re-materialized as a tie cell. *)
  let out' = Netlist.find_output n' "out" in
  let and_gate = n'.Netlist.gates.(out'.(0)) in
  let tie = n'.Netlist.gates.(and_gate.Gate.fanin.(1)) in
  Alcotest.(check bool) "tie is const one" true
    (Gate.op_equal tie.Gate.op (Gate.Const Bit.One));
  (* hook name survived, pointing at the tie. *)
  let hook = Netlist.find_name n' "hook" in
  Alcotest.(check bool) "hook remapped to const" true
    (Gate.op_equal n'.Netlist.gates.(hook.(0)).Gate.op (Gate.Const Bit.One))

let test_module_of () =
  let b = B.create () in
  let a = B.add_op b ~module_path:"cpu/frontend" Gate.Input [||] in
  let g = B.add_op b ~module_path:"cpu/alu" Gate.Not [| a |] in
  B.set_input_port b "a" [| a |];
  B.set_output_port b "o" [| g |];
  let n = B.finish b in
  Alcotest.(check string) "module" "cpu" (Netlist.module_of n g);
  Alcotest.(check (list string)) "modules" [ "cpu" ] (Netlist.modules n)

let test_validate_errors () =
  let b = B.create () in
  let a = B.add_op b Gate.Input [||] in
  ignore (B.add b { Gate.op = Gate.And; fanin = [| a |]; module_path = ""; drive = 0 });
  Alcotest.(check bool) "arity error" true
    (try
       ignore (B.finish b);
       false
     with Failure _ -> true)

(* ---- serialization ---- *)

module Serial = Bespoke_netlist.Serial

let test_serial_roundtrip_tiny () =
  let n, _, _, _, _, _, _ = tiny () in
  let text = Serial.to_string n in
  let n' = Serial.of_string text in
  Alcotest.(check string) "stable reserialization" text (Serial.to_string n');
  Alcotest.(check int) "same gates" (Netlist.gate_count n) (Netlist.gate_count n');
  Alcotest.(check int) "same dffs" (Netlist.num_dffs n) (Netlist.num_dffs n')

let test_serial_roundtrip_cpu () =
  let n = Bespoke_cpu.Cpu.build () in
  let n' = Serial.of_string (Serial.to_string n) in
  Alcotest.(check int) "gates" (Netlist.gate_count n) (Netlist.gate_count n');
  Alcotest.(check (list string)) "modules" (Netlist.modules n) (Netlist.modules n');
  (* behaviourally identical on a quick run *)
  let img = Bespoke_isa.Asm.assemble "start: mov #42, &0x0012\n halt\n" in
  let r = Bespoke_cpu.Lockstep.run ~netlist:n' img in
  Alcotest.(check int) "runs" 42 r.Bespoke_cpu.Lockstep.gpio_final

let test_gate_set_roundtrip () =
  List.iter
    (fun n ->
      let set = Array.init n (fun i -> (i * 7) mod 3 = 0) in
      let set' = Serial.gate_set_of_string (Serial.gate_set_to_string set) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %d" n) true (set = set'))
    [ 0; 1; 4; 5; 255; 256; 257; 8192 ]

let test_gate_set_errors () =
  let expect text =
    match Serial.gate_set_of_string text with
    | exception Serial.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  expect "";
  expect "bespoke-gate-set 2 4\n0\n";
  expect "bespoke-gate-set 1 400\n00\n";
  expect "bespoke-gate-set 1 4\nzz\n"

let test_serial_errors () =
  let expect_error text =
    match Serial.of_string text with
    | exception Serial.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_error "";
  expect_error "bespoke-netlist 2\nend\n";
  expect_error "bespoke-netlist 1\ngates 1\ng bogus 0 - 0\nend\n";
  expect_error "bespoke-netlist 1\ngates 2\ng input 0 -\nend\n";
  (* out-of-range fanin caught by validation *)
  expect_error "bespoke-netlist 1\ngates 1\ng not 0 - 7\nend\n"

let () =
  Alcotest.run "bespoke_netlist"
    [
      ( "netlist",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "levelize" `Quick test_levelize;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detect;
          Alcotest.test_case "live gates" `Quick test_live_gates;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "module paths" `Quick test_module_of;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
          QCheck_alcotest.to_alcotest test_levelize_prop;
        ] );
      ( "serial",
        [
          Alcotest.test_case "roundtrip tiny" `Quick test_serial_roundtrip_tiny;
          Alcotest.test_case "roundtrip cpu" `Slow test_serial_roundtrip_cpu;
          Alcotest.test_case "parse errors" `Quick test_serial_errors;
          Alcotest.test_case "gate-set roundtrip" `Quick test_gate_set_roundtrip;
          Alcotest.test_case "gate-set errors" `Quick test_gate_set_errors;
        ] );
    ]
