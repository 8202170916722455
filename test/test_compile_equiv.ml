(* Differential equivalence of the compiled word-level engine.

   The full-order sweep (Engine mode Full) is the reference
   semantics; the compiled engine (Engine mode Compiled,
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
   - the design-hash memoization must hit on re-creation of the same
     netlist and miss after a single-gate fault mutation. *)

module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Engine = Bespoke_sim.Engine
module Compile = Bespoke_sim.Compile
module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_cpu.Lockstep
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Fault = Bespoke_verify.Fault
module B = Bespoke_programs.Benchmark
let core = Bespoke_cpu.Msp430.core

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
      let fu = Runner.run_gate ~core ~engine:Runner.Full ~netlist:net b ~seed in
      let co = Runner.run_gate ~core ~engine:Runner.Compiled ~netlist:net b ~seed in
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
    let run mode = Lockstep.run ~mode ~netlist:net ~gpio_in:gpio img in
    let fu = run Engine.Full and co = run Engine.Compiled in
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

type rng = { mutable s : int }

let next r =
  r.s <- ((r.s * 1103515245) + 12345) land 0x3FFFFFFF;
  (r.s lsr 7) land 0xFFFFFF

let pick r l = List.nth l (next r mod List.length l)

let rand_bit r =
  match next r mod 5 with 0 -> Bit.X | 1 | 2 -> Bit.Zero | _ -> Bit.One

let gen_net seed =
  let r = { s = (seed * 2654435761) lor 1 } in
  let bld = Netlist.Builder.create () in
  let add op fanin =
    Netlist.Builder.add bld { Gate.op; fanin; module_path = ""; drive = 0 }
  in
  let n_in = 3 + (next r mod 4) in
  let inputs = Array.init n_in (fun _ -> add Gate.Input [||]) in
  let consts =
    [ add (Gate.Const Bit.Zero) [||]; add (Gate.Const Bit.One) [||];
      add (Gate.Const Bit.X) [||] ]
  in
  let n_dff = 1 + (next r mod 3) in
  let dffs =
    Array.init n_dff (fun _ ->
        add (Gate.Dff (pick r [ Bit.Zero; Bit.One ])) [| inputs.(0) |])
  in
  let pool = ref (Array.to_list inputs @ consts @ Array.to_list dffs) in
  let n_logic = 20 + (next r mod 40) in
  for _ = 1 to n_logic do
    let op =
      pick r
        [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor;
          Gate.Xor; Gate.Xnor; Gate.Mux ]
    in
    let fanin = Array.init (Gate.arity op) (fun _ -> pick r !pool) in
    let id = add op fanin in
    pool := id :: !pool
  done;
  Array.iter
    (fun id ->
      let g = Netlist.Builder.gate bld id in
      Netlist.Builder.set bld id { g with Gate.fanin = [| pick r !pool |] })
    dffs;
  Netlist.Builder.set_output_port bld "out"
    (Array.of_list (List.filteri (fun i _ -> i < 4) !pool));
  (Netlist.Builder.finish bld, inputs)

let run_diff seed =
  let r = { s = (seed * 48271) lor 1 } in
  let net, inputs = gen_net seed in
  let cycles = 8 + (next r mod 16) in
  let ef = Engine.create ~mode:Full net in
  let ec = Engine.create ~mode:Compiled net in
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
      let fu = Runner.run_gate ~core ~engine:Runner.Full ~netlist:bespoke b ~seed in
      let co =
        Runner.run_gate ~core ~engine:Runner.Compiled ~netlist:bespoke b ~seed
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
      ("tailored", [ Alcotest.test_case "bespoke mult" `Quick test_tailored ]);
      ("cache", [ Alcotest.test_case "memoization" `Quick test_cache ]);
    ]
