(* Differential equivalence of the packed engine, and of partially
   propagated compiled state, against the reference.

   The full-order sweep (the test oracle, Bespoke_oracle.Sweep) is the
   reference semantics;
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
   - reset and restore_dff_rails must discard partially-propagated
     state: interleaving un-evaluated input writes with reset /
     restore must leave the compiled engine (pending instructions)
     and Packed (dirty queue) indistinguishable from the sweep;
   - the packed harness's ternary fallbacks: a lane with an X RAM
     range and a lane with an X GPIO word run next to a plain lane
     (word path), each equal to a scalar System set up the same way;
   - the memoized design hash keys structurally equal netlists alike
     and different ones apart. *)

module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Engine = Bespoke_sim.Engine
module Engine64 = Bespoke_sim.Engine64
module Sweep = Bespoke_oracle.Sweep
module Runner = Bespoke_core.Runner
module B = Bespoke_programs.Benchmark
module Bvec = Bespoke_logic.Bvec
module Memory = Bespoke_sim.Memory
module Serial = Bespoke_netlist.Serial
module Coredef = Bespoke_coreapi.Coredef
module System = Bespoke_coreapi.System
module System64 = Bespoke_coreapi.System64
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
      (fun s -> Runner.run_gate ~core ~engine:Sweep.create ~netlist:net b ~seed:s)
      seeds
  in
  let packed = List.map snd (Runner.run_gate_packed ~core ~netlist:net b ~seeds) in
  List.iter2 (check_outcome_equal b.B.name "packed") full packed

(* ------------------------------------------------------------------ *)
(* Random netlists, random ternary stimuli                             *)

open Fuzzgen  (* rng, next, pick, rand_bit, gen_net *)

(* Drive [lanes] pre-generated stimulus sequences through one sweep
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
  let fulls = Array.init lanes (fun _ -> Sweep.create net) in
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
  let scalars = Array.init lanes (fun _ -> Sweep.create net) in
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
  let ef = Sweep.create net in
  let ec = Engine.create net in
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
  let ef = Sweep.create net in
  let ec = Engine.create net in
  let r = { s = 0xcafe3 } in
  Engine.reset ef;
  Engine.reset ec;
  drive_and_compare "restore: warm-up" ef ec inputs r 4;
  let st = Engine.dff_state ef in
  Alcotest.(check bool) "dff snapshots agree" true (st = Engine.dff_state ec);
  let rf = Engine.dff_rails ef and rc = Engine.dff_rails ec in
  (* pending un-evaluated input writes, then snapshot restore: the
     compiled engine must re-settle from the restored state, not from
     the stale pending set *)
  Array.iter
    (fun id ->
      Engine.set_gate ef id Bit.X;
      Engine.set_gate ec id Bit.X)
    inputs;
  Engine.restore_dff_rails ef rf;
  Engine.restore_dff_rails ec rc;
  Engine.sync_prev ef;
  Engine.sync_prev ec;
  let ng = Netlist.gate_count net in
  for id = 0 to ng - 1 do
    if Engine.value ec id <> Engine.value ef id then
      Alcotest.failf "restore: gate %d differs right after restore" id
  done;
  drive_and_compare "restore: after" ef ec inputs r 8

(* DFF rails against per-bit semantics.  On each engine, two random
   ternary DFF states [va] and [vb] are written into rails through
   [set_slot]; rail subsume, merge and slot assignment must match
   [Bit.subsumes], [Bit.merge] and assigning one bit, and restoring
   the rails must read back as [va] with both engines settled alike. *)
let check_rail_ops ~what net seed =
  let r = { s = (seed * 69069) lor 1 } in
  let engines = [ ("sweep", Sweep.create net); ("compiled", Engine.create net) ] in
  let dffs = Engine.dff_ids (snd (List.hd engines)) in
  let n = Array.length dffs in
  let va = Array.init n (fun _ -> rand_bit r) in
  (* half the time a refinement of [va], which [va] subsumes *)
  let vb =
    if next r mod 2 = 0 then
      Array.map (fun x -> if Bit.is_known x then x else Bit.of_bool (next r mod 2 = 0)) va
    else Array.init n (fun _ -> rand_bit r)
  in
  let i = if n = 0 then 0 else next r mod n and b = rand_bit r in
  let fail fmt = Printf.ksprintf (fun m -> failwith (what ^ ": " ^ m)) fmt in
  List.iter
    (fun (name, e) ->
      Engine.reset e;
      let slots = Array.map (Engine.dff_slot e) dffs in
      let rails v =
        let x = Engine.dff_rails e in
        Array.iteri (fun k slot -> Engine.set_slot x slot v.(k)) slots;
        x
      in
      let bits x = Array.map (fun slot -> Bit.of_int_exn (Engine.slot_code x slot)) slots in
      let ra = rails va and rb = rails vb in
      if bits ra <> va then fail "%s: set_slot/slot_code do not round-trip" name;
      let per_bit = Array.for_all2 Bit.subsumes va vb in
      if Engine.rails_subsumes ~general:ra ~specific:rb <> per_bit then
        fail "%s: rails_subsumes differs from Bit.subsumes" name;
      if not (Engine.rails_subsumes ~general:ra ~specific:ra) then
        fail "%s: a state does not subsume itself" name;
      if bits (Engine.rails_merge ra rb) <> Array.map2 Bit.merge va vb then
        fail "%s: rails_merge differs from Bit.merge" name;
      if n > 0 then begin
        let x = Array.copy ra in
        Engine.set_slot x slots.(i) b;
        let expect = Array.copy va in
        expect.(i) <- b;
        if bits x <> expect then fail "%s: set_slot differs from assigning a bit" name
      end;
      Engine.restore_dff_rails e ra;
      if Engine.dff_state e <> va || Engine.dff_rails e <> ra then
        fail "%s: restore does not read back" name)
    engines;
  match engines with
  | [ (_, ef); (_, ec) ] ->
    for id = 0 to Netlist.gate_count net - 1 do
      if Engine.value ef id <> Engine.value ec id then
        fail "gate %d differs between the engines after restore" id
    done
  | _ -> assert false

let test_rail_ops =
  QCheck.Test.make ~name:"random netlists: DFF rail ops = per-bit semantics"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      check_rail_ops ~what:(Printf.sprintf "seed %d" seed) (fst (gen_net seed)) seed;
      true)

let test_rail_ops_core () =
  let net = Runner.shared_netlist core in
  List.iter (fun seed -> check_rail_ops ~what:"msp430 core" net seed) [ 1; 2; 3 ]

let test_packed_reset_after_partial () =
  let net, inputs = gen_net 17 in
  let scalar = Sweep.create net in
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
(* Packed ports: word path and ternary fallback in one run             *)

(* Lane 0 is a plain input (every port feed and write goes as words);
   lane 1 has its input RAM range X (X words at known addresses);
   lane 2 has an X GPIO word (X data, then X addresses).  Each lane must
   match a scalar reference System given the same set-up, at every
   cycle and in its final activity. *)
let test_packed_fallbacks () =
  let b = B.find "binSearch" in
  let img = Runner.image ~core b in
  let net = Runner.shared_netlist core in
  let st = Runner.stimulus b ~seed:3 in
  let lo, hi = List.hd b.B.input_ranges in
  let x_range mem =
    Memory.set_x_range mem ~lo:(Coredef.ram_index core lo)
      ~hi:(Coredef.ram_index core hi)
  in
  let lanes = 3 in
  let packed = System64.create ~lanes ~netlist:net ~core img in
  System64.reset packed;
  let scalars =
    Array.init lanes (fun lane ->
        let s = System.create ~engine:Sweep.create ~netlist:net ~core img in
        System.reset s;
        List.iter
          (fun (a, v) -> System.load_ram_word s a v)
          st.Runner.ram_writes;
        if lane = 2 then System.set_gpio_in_x s
        else System.set_gpio_in_int s st.Runner.gpio;
        if lane = 1 then x_range (System.ram s);
        s)
  in
  for lane = 0 to lanes - 1 do
    List.iter
      (fun (a, v) -> System64.load_ram_word packed lane a v)
      st.Runner.ram_writes;
    if lane = 2 then
      System64.set_gpio_in_lane packed lane (Bvec.all_x core.Coredef.word_bits)
    else System64.set_gpio_in_lane_int packed lane st.Runner.gpio
  done;
  x_range (System64.ram packed 1);
  let eng64 = System64.engine packed in
  let ng = Netlist.gate_count net in
  let x_seen = Array.make lanes false in
  for c = 1 to 300 do
    System64.step_cycle packed ~active:((1 lsl lanes) - 1);
    Array.iter System.step_cycle scalars;
    Array.iteri
      (fun lane s ->
        for id = 0 to ng - 1 do
          let v = Engine.value (System.engine s) id in
          if Bit.equal v Bit.X then x_seen.(lane) <- true;
          if not (Bit.equal (Engine64.value_lane eng64 id lane) v) then
            Alcotest.failf
              "cycle %d lane %d gate %d: packed differs from scalar" c lane id
        done)
      scalars
  done;
  Alcotest.(check (list bool)) "X reaches the fallback lanes only"
    [ false; true; true ] (Array.to_list x_seen);
  Array.iteri
    (fun lane s ->
      let eng = System.engine s in
      Alcotest.(check bool)
        (Printf.sprintf "lane %d toggles" lane)
        true
        (Engine64.toggle_counts_lane eng64 lane = Engine.toggle_counts eng);
      Alcotest.(check bool)
        (Printf.sprintf "lane %d possibly toggled" lane)
        true
        (Engine64.possibly_toggled_lane eng64 lane
        = Engine.possibly_toggled eng);
      for w = 0 to core.Coredef.ram_words - 1 do
        let a = core.Coredef.ram_base + (w lsl core.Coredef.addr_shift) in
        if System64.read_ram_word packed lane a <> System.read_ram_word s a then
          Alcotest.failf "lane %d ram[%04x] differs" lane a
      done)
    scalars

(* ------------------------------------------------------------------ *)
(* Design hash: memoized per value, keyed by structure                 *)

let test_hash_memo () =
  let net = Runner.shared_netlist core in
  let h = Serial.hash net in
  Alcotest.(check string) "memoized value" h (Serial.hash net);
  let copy = Serial.of_string (Serial.to_string net) in
  Alcotest.(check bool) "a distinct value" false (copy == net);
  Alcotest.(check string) "equal structure, equal key" h (Serial.hash copy);
  let flipped =
    Netlist.map_gates net (fun _ (g : Gate.t) ->
        match g.Gate.op with
        | Gate.Xor -> { g with Gate.op = Gate.Xnor }
        | _ -> g)
  in
  Alcotest.(check bool) "different design, different key" true
    (Serial.hash flipped <> h)

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
          qt test_rail_ops;
          Alcotest.test_case "DFF rail ops on the msp430 core" `Quick
            test_rail_ops_core;
          Alcotest.test_case "63 lanes vs 63 scalar runs" `Quick
            test_full_width ] );
      ( "invalidate",
        [
          Alcotest.test_case "reset after partial propagation" `Quick
            test_reset_after_partial;
          Alcotest.test_case "restore_dff_rails after partial propagation"
            `Quick test_restore_after_partial;
          Alcotest.test_case "packed reset after partial propagation" `Quick
            test_packed_reset_after_partial;
        ] );
      ( "harness",
        [
          Alcotest.test_case "packed word path and ternary fallbacks = scalar"
            `Quick test_packed_fallbacks;
          Alcotest.test_case "design hash memoized, keyed by structure" `Quick
            test_hash_memo;
        ] );
    ]
