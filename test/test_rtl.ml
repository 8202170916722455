module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Rtl = Bespoke_rtl.Rtl
module Engine = Bespoke_sim.Engine

(* Build a single-output combinational circuit, synthesize it, and
   compare gate-level simulation against both the DSL reference
   evaluator and a direct integer-level function. *)
let check_comb ~name ~inputs ~build ~reference cases =
  let b = Rtl.create_builder () in
  let in_sigs = List.map (fun (n, w) -> (n, Rtl.input b n w)) inputs in
  let out = build (fun n -> List.assoc n in_sigs) in
  Rtl.output b "out" out;
  let net = Rtl.synthesize b in
  let eng = Engine.create net in
  List.iter
    (fun case ->
      Engine.reset eng;
      List.iter (fun (n, v) -> Engine.set_input_int eng n v) case;
      Engine.eval eng;
      let got = Engine.read_int eng "out" in
      let expect = reference case in
      let env n = Bvec.of_int ~width:(List.assoc n inputs) (List.assoc n case) in
      let ref_eval = Bvec.to_int (Rtl.eval_comb env out) in
      Alcotest.(check (option int))
        (Printf.sprintf "%s gate-level %s" name
           (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) case)))
        (Some expect) got;
      Alcotest.(check (option int))
        (Printf.sprintf "%s reference" name)
        (Some expect) ref_eval)
    cases

let pairs16 =
  [
    [ ("a", 0); ("b", 0) ];
    [ ("a", 1); ("b", 0xffff) ];
    [ ("a", 0x1234); ("b", 0x4321) ];
    [ ("a", 0x8000); ("b", 0x8000) ];
    [ ("a", 0xffff); ("b", 0xffff) ];
    [ ("a", 42); ("b", 7) ];
  ]

let test_add () =
  check_comb ~name:"add"
    ~inputs:[ ("a", 16); ("b", 16) ]
    ~build:(fun env -> Rtl.add (env "a") (env "b"))
    ~reference:(fun c -> (List.assoc "a" c + List.assoc "b" c) land 0xffff)
    pairs16

let test_sub () =
  check_comb ~name:"sub"
    ~inputs:[ ("a", 16); ("b", 16) ]
    ~build:(fun env -> Rtl.sub (env "a") (env "b"))
    ~reference:(fun c -> (List.assoc "a" c - List.assoc "b" c) land 0xffff)
    pairs16

let test_mult () =
  check_comb ~name:"mult"
    ~inputs:[ ("a", 8); ("b", 8) ]
    ~build:(fun env -> Rtl.( *: ) (env "a") (env "b"))
    ~reference:(fun c -> List.assoc "a" c * List.assoc "b" c)
    [
      [ ("a", 0); ("b", 0) ];
      [ ("a", 255); ("b", 255) ];
      [ ("a", 12); ("b", 34) ];
      [ ("a", 200); ("b", 3) ];
    ]

let test_compare () =
  check_comb ~name:"less-than"
    ~inputs:[ ("a", 16); ("b", 16) ]
    ~build:(fun env -> Rtl.( <: ) (env "a") (env "b"))
    ~reference:(fun c -> if List.assoc "a" c < List.assoc "b" c then 1 else 0)
    pairs16;
  check_comb ~name:"equal"
    ~inputs:[ ("a", 16); ("b", 16) ]
    ~build:(fun env -> Rtl.( ==: ) (env "a") (env "b"))
    ~reference:(fun c -> if List.assoc "a" c = List.assoc "b" c then 1 else 0)
    pairs16

let test_mux_n () =
  check_comb ~name:"mux4"
    ~inputs:[ ("sel", 2); ("a", 8); ("b", 8) ]
    ~build:(fun env ->
      Rtl.mux (env "sel")
        [ env "a"; env "b"; Rtl.constant ~width:8 0x55; Rtl.constant ~width:8 0xaa ])
    ~reference:(fun c ->
      match List.assoc "sel" c with
      | 0 -> List.assoc "a" c
      | 1 -> List.assoc "b" c
      | 2 -> 0x55
      | _ -> 0xaa)
    [
      [ ("sel", 0); ("a", 11); ("b", 22) ];
      [ ("sel", 1); ("a", 11); ("b", 22) ];
      [ ("sel", 2); ("a", 11); ("b", 22) ];
      [ ("sel", 3); ("a", 11); ("b", 22) ];
    ]

let test_shifts () =
  check_comb ~name:"sll3"
    ~inputs:[ ("a", 16) ]
    ~build:(fun env -> Rtl.sll_const (env "a") 3)
    ~reference:(fun c -> (List.assoc "a" c lsl 3) land 0xffff)
    [ [ ("a", 0x1234) ]; [ ("a", 0xffff) ] ];
  check_comb ~name:"srl5"
    ~inputs:[ ("a", 16) ]
    ~build:(fun env -> Rtl.srl_const (env "a") 5)
    ~reference:(fun c -> List.assoc "a" c lsr 5)
    [ [ ("a", 0x1234) ]; [ ("a", 0xffff) ] ]

let test_resize () =
  check_comb ~name:"sresize"
    ~inputs:[ ("a", 8) ]
    ~build:(fun env -> Rtl.sresize (env "a") 16)
    ~reference:(fun c ->
      let a = List.assoc "a" c in
      if a land 0x80 <> 0 then a lor 0xff00 else a)
    [ [ ("a", 0x7f) ]; [ ("a", 0x80) ]; [ ("a", 0xff) ]; [ ("a", 0) ] ]

let test_counter () =
  let b = Rtl.create_builder () in
  let en = Rtl.input b "en" 1 in
  let count = Rtl.wire 8 in
  let q = Rtl.reg b ~enable:en ~init:0 (Rtl.add count (Rtl.constant ~width:8 1)) in
  Rtl.( <== ) count q;
  Rtl.output b "q" q;
  let net = Rtl.synthesize b in
  let eng = Engine.create net in
  Engine.reset eng;
  Engine.set_input_int eng "en" 1;
  Engine.eval eng;
  for i = 1 to 5 do
    Engine.step eng;
    Alcotest.(check (option int)) "count" (Some i) (Engine.read_int eng "q")
  done;
  Engine.set_input_int eng "en" 0;
  Engine.eval eng;
  Engine.step eng;
  Alcotest.(check (option int)) "held" (Some 5) (Engine.read_int eng "q")

let test_reg_clear () =
  let b = Rtl.create_builder () in
  let clr = Rtl.input b "clr" 1 in
  let d = Rtl.input b "d" 4 in
  let q = Rtl.reg b ~clear:clr ~clear_to:0x9 ~init:0 d in
  Rtl.output b "q" q;
  let net = Rtl.synthesize b in
  let eng = Engine.create net in
  Engine.reset eng;
  Engine.set_input_int eng "clr" 0;
  Engine.set_input_int eng "d" 5;
  Engine.eval eng;
  Engine.step eng;
  Alcotest.(check (option int)) "loaded" (Some 5) (Engine.read_int eng "q");
  Engine.set_input_int eng "clr" 1;
  Engine.eval eng;
  Engine.step eng;
  Alcotest.(check (option int)) "cleared" (Some 9) (Engine.read_int eng "q")

let test_constant_folding () =
  (* A circuit of constants must synthesize to zero real gates. *)
  let b = Rtl.create_builder () in
  let x = Rtl.constant ~width:8 0x5a in
  let y = Rtl.add x (Rtl.constant ~width:8 0x11) in
  Rtl.output b "out" y;
  let net = Rtl.synthesize b in
  Alcotest.(check int) "no gates" 0 (Netlist.num_gates net);
  let eng = Engine.create net in
  Engine.reset eng;
  Alcotest.(check (option int)) "value" (Some 0x6b) (Engine.read_int eng "out")

let test_cse () =
  (* a&b used twice must synthesize one AND gate. *)
  let b = Rtl.create_builder () in
  let x = Rtl.input b "x" 1 and y = Rtl.input b "y" 1 in
  let both = Rtl.( &: ) x y in
  let both2 = Rtl.( &: ) x y in
  Rtl.output b "o1" both;
  Rtl.output b "o2" both2;
  let net = Rtl.synthesize b in
  Alcotest.(check int) "one and" 1 (Netlist.num_gates net)

let test_scope_tagging () =
  let b = Rtl.create_builder () in
  let x = Rtl.input b "x" 1 in
  let inner =
    Rtl.in_scope b "top" (fun () ->
        Rtl.in_scope b "alu" (fun () -> Rtl.( ~: ) x))
  in
  Rtl.output b "o" inner;
  let net = Rtl.synthesize b in
  let o = Netlist.find_output net "o" in
  Alcotest.(check string) "path" "top/alu"
    net.Netlist.gates.(o.(0)).Bespoke_netlist.Gate.module_path

(* Random expression property: gate-level == reference evaluator. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf w = oneof [ return `A; return `B; map (fun n -> `Const n) (int_bound ((1 lsl w) - 1)) ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf 8
      else
        frequency
          [
            (2, leaf 8);
            (2, map2 (fun a b -> `And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> `Or (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> `Xor (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> `Not a) (self (depth - 1)));
            (2, map2 (fun a b -> `Add (a, b)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> `Sub (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map3 (fun s a b -> `Mux (s, a, b)) (self (depth - 1)) (self (depth - 1)) (self (depth - 1)));
          ])
    4

let rec build_expr env = function
  | `A -> env "a"
  | `B -> env "b"
  | `Const n -> Rtl.constant ~width:8 n
  | `And (a, b) -> Rtl.( &: ) (build_expr env a) (build_expr env b)
  | `Or (a, b) -> Rtl.( |: ) (build_expr env a) (build_expr env b)
  | `Xor (a, b) -> Rtl.( ^: ) (build_expr env a) (build_expr env b)
  | `Not a -> Rtl.( ~: ) (build_expr env a)
  | `Add (a, b) -> Rtl.add (build_expr env a) (build_expr env b)
  | `Sub (a, b) -> Rtl.sub (build_expr env a) (build_expr env b)
  | `Mux (s, a, b) ->
    Rtl.mux2 (Rtl.bit (build_expr env s) 0) (build_expr env a) (build_expr env b)

let rec eval_expr a b = function
  | `A -> a
  | `B -> b
  | `Const n -> n
  | `And (x, y) -> eval_expr a b x land eval_expr a b y
  | `Or (x, y) -> eval_expr a b x lor eval_expr a b y
  | `Xor (x, y) -> eval_expr a b x lxor eval_expr a b y
  | `Not x -> lnot (eval_expr a b x) land 0xff
  | `Add (x, y) -> (eval_expr a b x + eval_expr a b y) land 0xff
  | `Sub (x, y) -> (eval_expr a b x - eval_expr a b y) land 0xff
  | `Mux (s, x, y) ->
    if eval_expr a b s land 1 = 0 then eval_expr a b x else eval_expr a b y

let test_random_exprs =
  QCheck.Test.make ~name:"synthesized circuit matches direct evaluation"
    ~count:60
    (QCheck.make
       QCheck.Gen.(triple gen_expr (int_bound 255) (int_bound 255)))
    (fun (e, av, bv) ->
      let b = Rtl.create_builder () in
      let a = Rtl.input b "a" 8 and bb = Rtl.input b "b" 8 in
      let env n = if n = "a" then a else bb in
      let out = build_expr env e in
      Rtl.output b "out" out;
      let net = Rtl.synthesize b in
      let eng = Engine.create net in
      Engine.reset eng;
      Engine.set_input_int eng "a" av;
      Engine.set_input_int eng "b" bv;
      Engine.eval eng;
      Engine.read_int eng "out" = Some (eval_expr av bv e))

(* X-propagation soundness through a synthesized circuit: with one
   input X, the gate-level ternary output must subsume both
   concretizations. *)
let test_x_soundness =
  QCheck.Test.make ~name:"ternary gate sim subsumes concretizations" ~count:40
    (QCheck.make QCheck.Gen.(pair gen_expr (int_bound 255)))
    (fun (e, av) ->
      let b = Rtl.create_builder () in
      let a = Rtl.input b "a" 8 and bb = Rtl.input b "b" 8 in
      let env n = if n = "a" then a else bb in
      Rtl.output b "out" (build_expr env e);
      let net = Rtl.synthesize b in
      let eng = Engine.create net in
      Engine.reset eng;
      Engine.set_input_int eng "a" av;
      Engine.set_input_x eng "b";
      Engine.eval eng;
      let tern = Engine.read eng "out" in
      List.for_all
        (fun bv ->
          let concrete = Bvec.of_int ~width:8 (eval_expr av bv e) in
          Bvec.subsumes ~general:tern ~specific:concrete)
        [ 0; 1; 0x55; 0xaa; 0xff; 37; 200 ])

(* A build keeps its state to itself: both cores built three times
   over in 4 domains at once hash as they do built one after the
   other. *)
let test_parallel_builds () =
  let cores = Bespoke_cores.Cores.[ msp430.core; rv32.core ] in
  let hashes () =
    List.map
      (fun c -> Bespoke_netlist.Serial.hash (c.Bespoke_coreapi.Coredef.build ()))
      cores
  in
  let sequential = hashes () in
  (* the domains start building together *)
  let ready = Atomic.make 0 in
  let build () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    List.init 3 (fun _ -> hashes ())
  in
  List.init 4 (fun _ -> Domain.spawn build)
  |> List.iteri (fun i d ->
         List.iter
           (Alcotest.(check (list string)) (Printf.sprintf "domain %d" i) sequential)
           (Domain.join d))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_rtl"
    [
      ( "comb",
        [
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "mult" `Quick test_mult;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "mux" `Quick test_mux_n;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "resize" `Quick test_resize;
        ] );
      ( "seq",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "clear" `Quick test_reg_clear;
        ] );
      ( "synth",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "scopes" `Quick test_scope_tagging;
          Alcotest.test_case "parallel core builds" `Quick test_parallel_builds;
          qt test_random_exprs;
          qt test_x_soundness;
        ] );
    ]
