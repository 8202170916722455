(* Differential equivalence of the compiled word-level engine.

   The full-order sweep (the test oracle, Bespoke_oracle.Sweep) is the
   reference semantics; the compiled engine (Engine.create,
   lib/sim/compile.ml) must be bit-identical to it:

   - every in-tree benchmark runs gate-level under both engines and
     must agree on result words (the RAM the program wrote), cycle
     counts, GPIO and per-gate toggle counts;
   - >= 50 Fuzzgen programs run in full lockstep against the ISS under
     both engines and must produce identical results, including the
     toggle vector;
   - randomized netlists (random DAGs with DFF feedback, random
     ternary stimuli including X) must agree on every gate value at
     every cycle and on final activity — this exercises the scalar
     fallback path, since random DAGs have none of the word structure
     the compiler mines;
   - a tailored (bespoke) design must round-trip identically, covering
     const-X ties and cut stitches;
   - packed assumption checks (the test Engine.checks returns) must
     give, on every cycle of a random netlist, exactly the OR of the
     per-check scalar verdicts (Gate.eval, known and != assumed), on
     both engines;
   - the design-hash memoization must hit on re-creation of the same
     netlist and miss after a single-gate fault mutation. *)

module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Engine = Bespoke_sim.Engine
module Compile = Bespoke_sim.Compile
module Sweep = Bespoke_oracle.Sweep
module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_coreapi.Lockstep
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Fault = Bespoke_verify.Fault
module B = Bespoke_programs.Benchmark
module Msp430 = Bespoke_cpu.Msp430
let core = Msp430.core

(* ------------------------------------------------------------------ *)
(* Benchmarks: full vs compiled outcomes                               *)

let check_outcome_equal name tag (a : Runner.gate_outcome)
    (b : Runner.gate_outcome) =
  Alcotest.(check (list (pair int (option int))))
    (name ^ ": " ^ tag ^ " results") a.Runner.g_results b.Runner.g_results;
  Alcotest.(check int) (name ^ ": " ^ tag ^ " cycles") a.Runner.g_cycles
    b.Runner.g_cycles;
  Alcotest.(check (option int))
    (name ^ ": " ^ tag ^ " gpio") a.Runner.g_gpio_out b.Runner.g_gpio_out;
  Alcotest.(check int)
    (name ^ ": " ^ tag ^ " sim_cycles") a.Runner.sim_cycles b.Runner.sim_cycles;
  Alcotest.(check bool)
    (name ^ ": " ^ tag ^ " toggles")
    true
    (a.Runner.toggles = b.Runner.toggles)

let test_benchmark (b : B.t) () =
  let net = Runner.shared_netlist core in
  List.iter
    (fun seed ->
      let fu = Runner.run_gate ~core ~engine:Sweep.create ~netlist:net b ~seed in
      let co = Runner.run_gate ~core ~engine:Engine.create ~netlist:net b ~seed in
      check_outcome_equal b.B.name (Printf.sprintf "seed %d" seed) fu co)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Fuzzgen programs in lockstep under both engines                     *)

let shared = lazy (Runner.shared_netlist core)

let test_fuzz_programs () =
  let net = Lazy.force shared in
  for seed = 1 to 50 do
    let src = Fuzzgen.program ~seed in
    let img = Asm.assemble src in
    let gpio = (seed * 40503) land 0xffff in
    let run engine = Lockstep.run ~engine ~netlist:net ~gpio_in:gpio
      ~core (Msp430.coreimage img) in
    let fu = run Sweep.create and co = run Engine.create in
    if fu <> co then
      Alcotest.failf
        "fuzz seed %d: compiled lockstep differs from full\n\
         (insns %d/%d, cycles %d/%d, gpio %04x/%04x, toggles equal: %b)\n\
         replay: BESPOKE_FUZZ_SEED=%d dune exec test/test_fuzz.exe"
        seed fu.Lockstep.instructions co.Lockstep.instructions
        fu.Lockstep.cycles co.Lockstep.cycles fu.Lockstep.gpio_final
        co.Lockstep.gpio_final
        (fu.Lockstep.toggles = co.Lockstep.toggles)
        seed
  done

(* ------------------------------------------------------------------ *)
(* Random netlists, random ternary stimuli (scalar-fallback stress)    *)

open Fuzzgen  (* rng, next, pick, rand_bit, gen_net *)

let run_diff seed =
  let r = { s = (seed * 48271) lor 1 } in
  let net, inputs = gen_net seed in
  let cycles = 8 + (next r mod 16) in
  let ef = Sweep.create net in
  let ec = Engine.create net in
  Engine.reset ef;
  Engine.reset ec;
  let ng = Netlist.gate_count net in
  for c = 0 to cycles - 1 do
    Array.iter
      (fun id ->
        let b = rand_bit r in
        Engine.set_gate ef id b;
        Engine.set_gate ec id b)
      inputs;
    Engine.eval ef;
    Engine.eval ec;
    for id = 0 to ng - 1 do
      if Engine.value ec id <> Engine.value ef id then
        QCheck.Test.fail_reportf
          "seed %d cycle %d gate %d: compiled value differs" seed c id
    done;
    Engine.commit_cycle ef;
    Engine.commit_cycle ec;
    Engine.step ef;
    Engine.step ec
  done;
  if Engine.toggle_counts ec <> Engine.toggle_counts ef then
    QCheck.Test.fail_reportf "seed %d: compiled toggles differ" seed;
  if Engine.possibly_toggled ec <> Engine.possibly_toggled ef then
    QCheck.Test.fail_reportf "seed %d: compiled possibly-toggled differ" seed;
  true

let test_random_netlists =
  QCheck.Test.make ~name:"random netlists: compiled = full (values + activity)"
    ~count:25
    QCheck.(int_bound 1_000_000)
    run_diff

(* ------------------------------------------------------------------ *)
(* Packed assumption checks = OR of scalar verdicts                    *)

let all_bits = [ Bit.Zero; Bit.One; Bit.X ]

(* Runs of same-op checks whose columns mix ties, random nets,
   consecutive gate ids and one repeated gate, so lowering sees
   scattered lanes, multi-bit runs and broadcasts. *)
let gen_checks r ng =
  let n = 1 + (next r mod 150) in
  let acc = ref [] in
  while List.length !acc < n do
    let op =
      pick r
        [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor;
          Gate.Xor; Gate.Xnor; Gate.Mux; Gate.Dff (pick r all_bits);
          Gate.Const (pick r all_bits) ]
    in
    let arity = match op with Gate.Const _ -> 0 | op -> Gate.arity op in
    let cols =
      Array.init arity (fun _ ->
          let base = next r mod ng in
          match next r mod 4 with
          | 0 -> fun _ -> if next r mod 3 = 0 then Engine.Tie (pick r all_bits)
                          else Engine.Net (next r mod ng)
          | 1 -> fun k -> Engine.Net ((base + k) mod ng)
          | 2 -> fun _ -> if next r mod 5 = 0 then Engine.Tie (pick r all_bits)
                          else Engine.Net base
          | _ -> fun k -> if next r mod 5 = 0 then Engine.Tie (pick r all_bits)
                          else Engine.Net ((base + k) mod ng))
    in
    for k = 0 to next r mod 20 do
      acc :=
        { Engine.c_op = op; c_fanin = Array.map (fun col -> col k) cols;
          c_assumed = pick r all_bits }
        :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

(* the scalar reference: Gate.eval over the engine's settled values *)
let scalar_code eng (c : Engine.check) =
  let v = function Engine.Net id -> Engine.value eng id | Engine.Tie b -> b in
  Bit.to_int (Gate.eval c.Engine.c_op (Array.map v c.Engine.c_fanin))

let scalar_verdict eng (c : Engine.check) =
  let code = scalar_code eng c in
  code <> Bit.code_x && code <> Bit.to_int c.Engine.c_assumed

let run_checks seed =
  let r = { s = (seed * 69621) lor 1 } in
  let net, inputs = gen_net seed in
  let ng = Netlist.gate_count net in
  let fixed = gen_checks r ng in
  let engines =
    List.map
      (fun (tag, create) ->
        let e = create net in
        Engine.reset e;
        (tag, e, Engine.checks e fixed))
      [ ("full", Sweep.create); ("compiled", Engine.create) ]
  in
  let cycles = 8 + (next r mod 16) in
  for cyc = 0 to cycles - 1 do
    let stim = Array.map (fun _ -> rand_bit r) inputs in
    (* per cycle, a targeted set: every check but one assumes its
       current value (and one whose value is X assumes anything), so
       the OR is the verdict of the one random [target] lane and a
       lane that convicts on X or misses a mismatch flips it *)
    let targeted = gen_checks r ng in
    let target = next r mod Array.length targeted in
    List.iter
      (fun (tag, e, violated) ->
        Array.iteri (fun i id -> Engine.set_gate e id stim.(i)) inputs;
        Engine.eval e;
        Engine.commit_cycle e;
        let expect = Array.exists (scalar_verdict e) fixed in
        if violated () <> expect then
          QCheck.Test.fail_reportf "seed %d cycle %d (%s): packed verdict %b, \
                                    scalar OR %b"
            seed cyc tag (not expect) expect;
        let tcs =
          Array.mapi
            (fun i c ->
              let code = scalar_code e c in
              if i = target || code = Bit.code_x then c
              else { c with Engine.c_assumed = Bit.of_int_exn code })
            targeted
        in
        let expect = scalar_verdict e tcs.(target) in
        if Engine.checks e tcs () <> expect then
          QCheck.Test.fail_reportf
            "seed %d cycle %d (%s): lane %d of %d: packed verdict %b, scalar %b"
            seed cyc tag target (Array.length tcs) (not expect) expect;
        Engine.step e)
      engines
  done;
  true

let test_packed_checks =
  QCheck.Test.make
    ~name:"packed checks = OR of scalar verdicts (full and compiled)"
    ~count:100
    QCheck.(int_bound 1_000_000)
    run_checks

(* ------------------------------------------------------------------ *)
(* Tailored design: const-X ties and cut stitches                      *)

let test_tailored () =
  let b = B.find "mult" in
  let report, net = Runner.analyze ~core b in
  let bespoke, _ =
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values
  in
  List.iter
    (fun seed ->
      let fu = Runner.run_gate ~core ~engine:Sweep.create ~netlist:bespoke b ~seed in
      let co =
        Runner.run_gate ~core ~engine:Engine.create ~netlist:bespoke b ~seed
      in
      check_outcome_equal "mult-bespoke" (Printf.sprintf "seed %d" seed) fu co)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Memoization: hit on re-create, miss after a single-gate mutation    *)

let test_cache () =
  (* the hit/miss counters are global and monotonic (other cases in
     this binary compile too), so assert on deltas from here *)
  Compile.clear_cache ();
  let h0 = Compile.cache_hits () and m0 = Compile.cache_misses () in
  let net = Runner.shared_netlist core in
  let c0 = Compile.create net in
  Alcotest.(check int) "first create misses" (m0 + 1) (Compile.cache_misses ());
  Alcotest.(check int) "first create does not hit" h0 (Compile.cache_hits ());
  Alcotest.(check bool) "first create compiled fresh" false
    (Compile.stats c0).Compile.from_cache;
  let c1 = Compile.create net in
  Alcotest.(check int) "re-create hits" (h0 + 1) (Compile.cache_hits ());
  Alcotest.(check int) "re-create does not recompile" (m0 + 1)
    (Compile.cache_misses ());
  Alcotest.(check bool) "re-create reused the program" true
    (Compile.stats c1).Compile.from_cache;
  (* one mutated gate must change the design hash and miss *)
  let gate =
    let found = ref (-1) in
    Array.iteri
      (fun i (g : Gate.t) ->
        if !found < 0 && g.Gate.op = Gate.And then found := i)
      net.Netlist.gates;
    !found
  in
  Alcotest.(check bool) "found an and gate to mutate" true (gate >= 0);
  let faulty =
    Fault.inject net
      { Fault.id = 0; kind = Fault.Swap_fn; gate; detectable = false;
        desc = "cache-test" }
  in
  let c2 = Compile.create faulty in
  Alcotest.(check int) "mutant misses" (m0 + 2) (Compile.cache_misses ());
  Alcotest.(check int) "mutant does not hit" (h0 + 1) (Compile.cache_hits ());
  Alcotest.(check bool) "mutant compiled fresh" false
    (Compile.stats c2).Compile.from_cache

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Kernels: the pending-bit scan, scalar gates, the ternary adder       *)

let test_ntz () =
  let naive b =
    let rec go k = if (b lsr k) land 1 = 1 then k else go (k + 1) in
    go 0
  in
  for i = 0 to 62 do
    Alcotest.(check int)
      (Printf.sprintf "bit %d" i) (naive (1 lsl i)) (Compile.ntz (1 lsl i))
  done

let bits3 = [ Bit.Zero; Bit.One; Bit.X ]

(* One singleton gate per op over inputs a, b, s: each compiles to a
   scalar-gate instruction, driven through all of {0,1,X}^3. *)
let test_scalar_gates () =
  let bld = Netlist.Builder.create () in
  let inp name =
    let id = Netlist.Builder.add_op bld Gate.Input [||] in
    Netlist.Builder.set_input_port bld name [| id |];
    id
  in
  let a = inp "a" and b = inp "b" and s = inp "s" in
  let ops =
    [
      (Gate.Buf, [| a |], fun x _ _ -> x);
      (Gate.Not, [| a |], fun x _ _ -> Bit.lnot x);
      (Gate.And, [| a; b |], fun x y _ -> Bit.land_ x y);
      (Gate.Or, [| a; b |], fun x y _ -> Bit.lor_ x y);
      (Gate.Nand, [| a; b |], fun x y _ -> Bit.lnand x y);
      (Gate.Nor, [| a; b |], fun x y _ -> Bit.lnor x y);
      (Gate.Xor, [| a; b |], fun x y _ -> Bit.lxor_ x y);
      (Gate.Xnor, [| a; b |], fun x y _ -> Bit.lxnor x y);
      (Gate.Mux, [| s; a; b |], fun x y z -> Bit.mux z x y);
    ]
  in
  let gates =
    List.map (fun (op, f, sem) -> (Netlist.Builder.add_op bld op f, op, sem)) ops
  in
  let c = Compile.create (Netlist.Builder.finish bld) in
  Alcotest.(check int) "one instruction per gate" (List.length ops)
    (Compile.stats c).Compile.instructions;
  Compile.reset c;
  List.iter
    (fun va ->
      List.iter
        (fun vb ->
          List.iter
            (fun vs ->
              Compile.set_gate c a va;
              Compile.set_gate c b vb;
              Compile.set_gate c s vs;
              Compile.eval c;
              List.iter
                (fun (id, op, sem) ->
                  Alcotest.(check char)
                    (Printf.sprintf "%s a=%c b=%c s=%c" (Gate.op_name op)
                       (Bit.to_char va) (Bit.to_char vb) (Bit.to_char vs))
                    (Bit.to_char (sem va vb vs))
                    (Bit.to_char (Bit.of_int_exn (Compile.value_code c id))))
                gates)
            bits3)
        bits3)
    bits3

(* A w-bit ripple-carry chain in the RTL lowering's gate order (5 gates
   per bit), which the compiler recovers as one adder instruction for
   w >= 2, against the per-bit Kleene chain over random X in x, y and
   cin. *)
let test_ternary_adder =
  QCheck.Test.make ~name:"word-parallel adder = per-bit Kleene chain" ~count:300
    QCheck.(pair (int_range 1 60) (int_bound 1_000_000))
    (fun (w, seed) ->
      let r = Random.State.make [| seed |] in
      let bld = Netlist.Builder.create () in
      let port name n =
        let ids = Array.init n (fun _ -> Netlist.Builder.add_op bld Gate.Input [||]) in
        Netlist.Builder.set_input_port bld name ids;
        ids
      in
      let x = port "x" w and y = port "y" w and cin = port "cin" 1 in
      let add op f = Netlist.Builder.add_op bld op f in
      let chain = Array.make w (0, 0, 0, 0, 0) in
      let carry = ref cin.(0) in
      for k = 0 to w - 1 do
        let axb = add Gate.Xor [| x.(k); y.(k) |] in
        let out = add Gate.Xor [| axb; !carry |] in
        let t1 = add Gate.And [| x.(k); y.(k) |] in
        let t2 = add Gate.And [| !carry; axb |] in
        let co = add Gate.Or [| t1; t2 |] in
        chain.(k) <- (axb, out, t1, t2, co);
        carry := co
      done;
      let c = Compile.create (Netlist.Builder.finish bld) in
      if w >= 2 && (Compile.stats c).Compile.adders <> 1 then
        QCheck.Test.fail_reportf "width %d: chain not recovered as an adder" w;
      Compile.reset c;
      for _ = 1 to 8 do
        (* an X density per stimulus, from none to all *)
        let px = Random.State.int r 4 in
        let draw () =
          if Random.State.int r 3 < px then Bit.X
          else Bit.of_bool (Random.State.bool r)
        in
        let vx = Array.map (fun _ -> draw ()) x
        and vy = Array.map (fun _ -> draw ()) y
        and vc = draw () in
        Array.iteri (fun k id -> Compile.set_gate c id vx.(k)) x;
        Array.iteri (fun k id -> Compile.set_gate c id vy.(k)) y;
        Compile.set_gate c cin.(0) vc;
        Compile.eval c;
        let cc = ref vc in
        Array.iteri
          (fun k (axb, out, t1, t2, co) ->
            let e_axb = Bit.lxor_ vx.(k) vy.(k) in
            let e_t1 = Bit.land_ vx.(k) vy.(k) in
            let e_t2 = Bit.land_ !cc e_axb in
            let e_co = Bit.lor_ e_t1 e_t2 in
            List.iter
              (fun (name, id, e) ->
                let got = Bit.of_int_exn (Compile.value_code c id) in
                if not (Bit.equal got e) then
                  QCheck.Test.fail_reportf "width %d seed %d bit %d: %s = %c, chain %c"
                    w seed k name (Bit.to_char got) (Bit.to_char e))
              [
                ("axb", axb, e_axb);
                ("out", out, Bit.lxor_ e_axb !cc);
                ("t1", t1, e_t1);
                ("t2", t2, e_t2);
                ("cout", co, e_co);
              ];
            cc := e_co)
          chain
      done;
      true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "compile_equiv"
    [
      ( "benchmarks",
        List.map
          (fun (b : B.t) ->
            Alcotest.test_case b.B.name `Quick (test_benchmark b))
          B.all );
      ("fuzz", [ Alcotest.test_case "50 fuzz programs" `Quick test_fuzz_programs ]);
      ("random", [ qt test_random_netlists ]);
      ("checks", [ qt test_packed_checks ]);
      ("tailored", [ Alcotest.test_case "bespoke mult" `Quick test_tailored ]);
      ("cache", [ Alcotest.test_case "memoization" `Quick test_cache ]);
      ( "kernels",
        [
          Alcotest.test_case "ntz on every one-bit word" `Quick test_ntz;
          Alcotest.test_case "scalar gates over {0,1,X}" `Quick test_scalar_gates;
          qt test_ternary_adder;
        ] );
    ]
