(* Differential equivalence of the packed engine, and of partially
   propagated compiled state, against the reference.

   The full-order sweep (Engine mode Full) is the reference semantics;
   the 64-way bit-parallel engine (Engine64) must be bit-identical to
   it (the compiled engine's own differential suite is
   test_compile_equiv):

   - every benchmark runs gate-level under both engines and must
     agree on result words, cycle counts, GPIO and per-gate toggle
     counts;
   - randomized netlists (random DAGs with DFF feedback, driven by
     random ternary stimuli including X) must agree on every gate
     value at every cycle, and on final toggle counts and
     possibly-toggled marks, lane by lane;
   - reset and restore_dff_state must discard partially-propagated
     state: interleaving un-evaluated input writes with reset /
     restore must leave Compiled (pending instructions) and Packed
     (dirty queue) indistinguishable from Full. *)

module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Engine = Bespoke_sim.Engine
module Engine64 = Bespoke_sim.Engine64
module Runner = Bespoke_core.Runner
module B = Bespoke_programs.Benchmark
let core = Bespoke_cpu.Msp430.core

(* ------------------------------------------------------------------ *)
(* Benchmarks under the reference and the packed engine               *)

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
  let seeds = [ 1; 2 ] in
  let full =
    List.map
      (fun s -> Runner.run_gate ~core ~mode:Engine.Full ~netlist:net b ~seed:s)
      seeds
  in
  let packed = List.map snd (Runner.run_gate_packed ~core ~netlist:net b ~seeds) in
  List.iter2 (check_outcome_equal b.B.name "packed") full packed

(* ------------------------------------------------------------------ *)
(* Random netlists, random ternary stimuli                             *)

type rng = { mutable s : int }

let next r =
  r.s <- ((r.s * 1103515245) + 12345) land 0x3FFFFFFF;
  (r.s lsr 7) land 0xFFFFFF

let pick r l = List.nth l (next r mod List.length l)

let rand_bit r =
  match next r mod 5 with 0 -> Bit.X | 1 | 2 -> Bit.Zero | _ -> Bit.One

(* Random DAG: inputs, consts (incl. a tied X), a few DFFs whose [d]
   pins are patched to arbitrary gates afterwards (sequential feedback
   allowed), then a layer of random combinational gates. *)
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
  (* patch DFF data pins now that the whole gate pool exists *)
  Array.iter
    (fun id ->
      let g = Netlist.Builder.gate bld id in
      Netlist.Builder.set bld id { g with Gate.fanin = [| pick r !pool |] })
    dffs;
  Netlist.Builder.set_output_port bld "out"
    (Array.of_list (List.filteri (fun i _ -> i < 4) !pool));
  (Netlist.Builder.finish bld, inputs)

(* Drive [lanes] pre-generated stimulus sequences through one Full
   scalar engine per lane plus a single packed engine, and
   require identical values every cycle and identical activity at the
   end. *)
let run_diff seed =
  let r = { s = (seed * 48271) lor 1 } in
  let net, inputs = gen_net seed in
  let lanes = 1 + (next r mod 8) in
  let cycles = 8 + (next r mod 16) in
  let stim =
    Array.init lanes (fun _ ->
        Array.init cycles (fun _ ->
            Array.init (Array.length inputs) (fun _ -> rand_bit r)))
  in
  let fulls = Array.init lanes (fun _ -> Engine.create ~mode:Full net) in
  let packed = Engine64.create ~lanes net in
  Array.iter Engine.reset fulls;
  Engine64.reset packed;
  let ng = Netlist.gate_count net in
  for c = 0 to cycles - 1 do
    for lane = 0 to lanes - 1 do
      Array.iteri
        (fun k id ->
          Engine.set_gate fulls.(lane) id stim.(lane).(c).(k);
          Engine64.set_gate_lane packed id lane stim.(lane).(c).(k))
        inputs
    done;
    Array.iter Engine.eval fulls;
    Engine64.eval packed;
    for lane = 0 to lanes - 1 do
      for id = 0 to ng - 1 do
        let vf = Engine.value fulls.(lane) id in
        if Engine64.value_lane packed id lane <> vf then
          QCheck.Test.fail_reportf
            "seed %d cycle %d lane %d gate %d: packed value differs" seed c
            lane id
      done
    done;
    Array.iter Engine.commit_cycle fulls;
    Engine64.commit_cycle packed;
    Array.iter Engine.step fulls;
    Engine64.step packed
  done;
  for lane = 0 to lanes - 1 do
    let tf = Engine.toggle_counts fulls.(lane) in
    if Engine64.toggle_counts_lane packed lane <> tf then
      QCheck.Test.fail_reportf "seed %d lane %d: packed toggles differ" seed lane;
    let pf = Engine.possibly_toggled fulls.(lane) in
    if Engine64.possibly_toggled_lane packed lane <> pf then
      QCheck.Test.fail_reportf "seed %d lane %d: packed possibly differ" seed lane
  done;
  true

let test_random_netlists =
  QCheck.Test.make ~name:"random netlists: full = packed (all lanes)"
    ~count:25
    QCheck.(int_bound 1_000_000)
    run_diff

(* All 63 lanes at once, one fixed case. *)
let test_full_width () =
  let net, inputs = gen_net 7 in
  let r = { s = 0x1234567 } in
  let lanes = Engine64.max_lanes in
  let cycles = 6 in
  let scalars = Array.init lanes (fun _ -> Engine.create ~mode:Full net) in
  let packed = Engine64.create ~lanes net in
  Array.iter Engine.reset scalars;
  Engine64.reset packed;
  for _ = 1 to cycles do
    for lane = 0 to lanes - 1 do
      Array.iter
        (fun id ->
          let b = rand_bit r in
          Engine.set_gate scalars.(lane) id b;
          Engine64.set_gate_lane packed id lane b)
        inputs
    done;
    Array.iter Engine.eval scalars;
    Engine64.eval packed;
    Array.iter Engine.commit_cycle scalars;
    Engine64.commit_cycle packed;
    Array.iter Engine.step scalars;
    Engine64.step packed
  done;
  for lane = 0 to lanes - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "lane %d toggles" lane)
      true
      (Engine64.toggle_counts_lane packed lane = Engine.toggle_counts scalars.(lane));
    Alcotest.(check bool)
      (Printf.sprintf "lane %d possibly" lane)
      true
      (Engine64.possibly_toggled_lane packed lane
      = Engine.possibly_toggled scalars.(lane))
  done

(* ------------------------------------------------------------------ *)
(* Reset / restore must invalidate partially-propagated state          *)

let drive_and_compare name ef ec inputs r cycles =
  let ng = Netlist.gate_count (Engine.netlist ef) in
  for c = 1 to cycles do
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
        Alcotest.failf "%s: cycle %d gate %d: compiled diverges from full" name c
          id
    done;
    Engine.commit_cycle ef;
    Engine.commit_cycle ec;
    Engine.step ef;
    Engine.step ec
  done;
  Alcotest.(check bool) (name ^ ": toggles") true
    (Engine.toggle_counts ec = Engine.toggle_counts ef);
  Alcotest.(check bool) (name ^ ": possibly") true
    (Engine.possibly_toggled ec = Engine.possibly_toggled ef)

let test_reset_after_partial () =
  let net, inputs = gen_net 42 in
  let ef = Engine.create ~mode:Full net in
  let ec = Engine.create ~mode:Compiled net in
  let r = { s = 0xbeef1 } in
  Engine.reset ef;
  Engine.reset ec;
  (* settle one stimulus, then write new inputs WITHOUT eval: the
     compiled engine now holds pending instructions which reset must
     discard *)
  Array.iter
    (fun id ->
      Engine.set_gate ef id Bit.One;
      Engine.set_gate ec id Bit.One)
    inputs;
  Engine.eval ef;
  Engine.eval ec;
  Array.iter
    (fun id ->
      Engine.set_gate ef id Bit.Zero;
      Engine.set_gate ec id Bit.Zero)
    inputs;
  Engine.reset ef;
  Engine.reset ec;
  drive_and_compare "reset-after-partial" ef ec inputs r 8

let test_restore_after_partial () =
  let net, inputs = gen_net 99 in
  let ef = Engine.create ~mode:Full net in
  let ec = Engine.create ~mode:Compiled net in
  let r = { s = 0xcafe3 } in
  Engine.reset ef;
  Engine.reset ec;
  drive_and_compare "restore: warm-up" ef ec inputs r 4;
  let st = Engine.dff_state ef in
  Alcotest.(check bool) "dff snapshots agree" true (st = Engine.dff_state ec);
  (* pending un-evaluated input writes, then snapshot restore: the
     compiled engine must re-settle from the restored state, not from
     the stale pending set *)
  Array.iter
    (fun id ->
      Engine.set_gate ef id Bit.X;
      Engine.set_gate ec id Bit.X)
    inputs;
  Engine.restore_dff_state ef st;
  Engine.restore_dff_state ec st;
  Engine.sync_prev ef;
  Engine.sync_prev ec;
  let ng = Netlist.gate_count net in
  for id = 0 to ng - 1 do
    if Engine.value ec id <> Engine.value ef id then
      Alcotest.failf "restore: gate %d differs right after restore" id
  done;
  drive_and_compare "restore: after" ef ec inputs r 8

let test_packed_reset_after_partial () =
  let net, inputs = gen_net 17 in
  let scalar = Engine.create ~mode:Full net in
  let packed = Engine64.create ~lanes:3 net in
  Engine.reset scalar;
  Engine64.reset packed;
  Array.iter
    (fun id ->
      Engine.set_gate scalar id Bit.One;
      Engine64.set_gate_lane packed id 1 Bit.One)
    inputs;
  Engine.eval scalar;
  Engine64.eval packed;
  (* dirty, un-evaluated writes... *)
  Array.iter
    (fun id ->
      Engine.set_gate scalar id Bit.Zero;
      Engine64.set_gate_lane packed id 1 Bit.Zero)
    inputs;
  (* ...then reset must make every lane a fresh X-input settle *)
  Engine.reset scalar;
  Engine64.reset packed;
  let ng = Netlist.gate_count net in
  for lane = 0 to 2 do
    for id = 0 to ng - 1 do
      if Engine64.value_lane packed id lane <> Engine.value scalar id then
        Alcotest.failf "packed reset: lane %d gate %d differs" lane id
    done
  done

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine_equiv"
    [
      ( "benchmarks",
        List.map
          (fun (b : B.t) ->
            Alcotest.test_case b.B.name `Quick (test_benchmark b))
          B.table1 );
      ( "random",
        [ qt test_random_netlists;
          Alcotest.test_case "63 lanes vs 63 scalar runs" `Quick
            test_full_width ] );
      ( "invalidate",
        [
          Alcotest.test_case "reset after partial propagation" `Quick
            test_reset_after_partial;
          Alcotest.test_case "restore_dff_state after partial propagation"
            `Quick test_restore_after_partial;
          Alcotest.test_case "packed reset after partial propagation" `Quick
            test_packed_reset_after_partial;
        ] );
    ]
