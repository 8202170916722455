module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Rtl = Bespoke_rtl.Rtl
module Engine = Bespoke_sim.Engine
module Asm = Bespoke_isa.Asm
module System = Bespoke_coreapi.System
module Activity = Bespoke_analysis.Activity
module B = Bespoke_programs.Benchmark
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Resynth = Bespoke_core.Resynth
module Usage = Bespoke_core.Usage
module Multi = Bespoke_core.Multi
module Module_prune = Bespoke_core.Module_prune
module Profiling = Bespoke_core.Profiling
module Lockstep = Bespoke_coreapi.Lockstep
module Msp430 = Bespoke_cpu.Msp430
module Sweep = Bespoke_oracle.Sweep
let core = Msp430.core

(* ---- Resynth ---- *)

let eval_output net ~inputs =
  let eng = Engine.create net in
  Engine.reset eng;
  List.iter (fun (n, v) -> Engine.set_input_int eng n v) inputs;
  Engine.eval eng;
  Engine.read_int eng "out"

let test_resynth_preserves_function =
  QCheck.Test.make ~name:"resynth preserves combinational behaviour" ~count:40
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 7))
    (fun (x, y, shape) ->
      let b = Rtl.create_builder () in
      let a = Rtl.input b "a" 8 and c = Rtl.input b "b" 8 in
      let expr =
        match shape land 3 with
        | 0 -> Rtl.add (Rtl.( &: ) a c) (Rtl.( ^: ) a c)
        | 1 -> Rtl.sub (Rtl.( |: ) a c) a
        | 2 -> Rtl.mux2 (Rtl.bit a 0) (Rtl.add a c) (Rtl.sub a c)
        | _ -> Rtl.( ^: ) (Rtl.( ~: ) a) (Rtl.add c c)
      in
      Rtl.output b "out" expr;
      let net = Rtl.synthesize b in
      let opt = Resynth.optimize net in
      eval_output net ~inputs:[ ("a", x); ("b", y) ]
      = eval_output opt ~inputs:[ ("a", x); ("b", y) ])

let test_resynth_folds_constants () =
  (* tying one adder input to zero should collapse it to wires *)
  let b = Rtl.create_builder () in
  let a = Rtl.input b "a" 8 in
  Rtl.output b "out" (Rtl.add a (Rtl.zero 8));
  let opt = Resynth.optimize (Rtl.synthesize b) in
  Alcotest.(check int) "no gates left" 0 (Netlist.num_gates opt)

let test_resynth_removes_floating () =
  let b = Rtl.create_builder () in
  let a = Rtl.input b "a" 8 in
  let _dead = Rtl.add a (Rtl.constant ~width:8 3) in
  Rtl.output b "out" (Rtl.bit a 0);
  let opt = Resynth.optimize (Rtl.synthesize b) in
  Alcotest.(check int) "only nothing left" 0 (Netlist.num_gates opt)

(* The rewrite's DFF rule: a DFF whose D is itself, or a tie equal
   to its reset value, becomes a tie; a DFF whose D is a tie unequal
   to its reset value takes that value after one cycle, so it stays. *)
let test_resynth_dff_rule () =
  let bld = Netlist.Builder.create () in
  let add op fanin =
    Netlist.Builder.add bld { Gate.op; fanin; module_path = ""; drive = 0 }
  in
  let one = add (Gate.Const Bit.One) [||] in
  let self = add (Gate.Dff Bit.Zero) [| 0 |] in
  Netlist.Builder.set bld self
    { (Netlist.Builder.gate bld self) with Gate.fanin = [| self |] };
  let same = add (Gate.Dff Bit.One) [| one |] in
  let rises = add (Gate.Dff Bit.Zero) [| one |] in
  Netlist.Builder.set_output_port bld "out" [| self; same; rises |];
  let opt = Resynth.optimize (Netlist.Builder.finish bld) in
  Alcotest.(check int) "one DFF left" 1 (Netlist.num_dffs opt);
  let eng = Engine.create opt in
  Engine.reset eng;
  Engine.eval eng;
  Alcotest.(check (option int)) "reset values" (Some 0b010)
    (Engine.read_int eng "out");
  Engine.step eng;
  Alcotest.(check (option int)) "after one cycle" (Some 0b110)
    (Engine.read_int eng "out")

(* Random sequential netlists: each DFF's D is the DFF itself, a
   constant, a DFF or random logic over inputs, constants and DFFs,
   so DFFs stuck at their reset value occur in sets of every size. *)
let gen_seq_net seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let bld = Netlist.Builder.create () in
  let add op fanin =
    Netlist.Builder.add bld { Gate.op; fanin; module_path = ""; drive = 0 }
  in
  let inputs = List.init (1 + Random.State.int st 3) (fun _ -> add Gate.Input [||]) in
  let consts =
    List.map (fun b -> add (Gate.Const b) [||]) [ Bit.Zero; Bit.One; Bit.X ]
  in
  let dffs =
    List.init
      (1 + Random.State.int st 8)
      (fun _ -> add (Gate.Dff (pick [ Bit.Zero; Bit.One; Bit.X ])) [| 0 |])
  in
  let pool = ref (inputs @ consts @ dffs @ dffs) in
  for _ = 1 to Random.State.int st 30 do
    let op =
      pick
        [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor;
          Gate.Xnor; Gate.Mux ]
    in
    pool := add op (Array.init (Gate.arity op) (fun _ -> pick !pool)) :: !pool
  done;
  List.iter
    (fun id ->
      let d =
        match Random.State.int st 4 with
        | 0 -> id
        | 1 -> pick consts
        | 2 -> pick dffs
        | _ -> pick !pool
      in
      Netlist.Builder.set bld id
        { (Netlist.Builder.gate bld id) with Gate.fanin = [| d |] })
    dffs;
  Netlist.Builder.set_input_port bld "in" (Array.of_list inputs);
  Netlist.Builder.set_output_port bld "out" (Array.of_list dffs);
  Netlist.Builder.finish bld

(* [run net ~seed ~cycles f] resets [net], then for each cycle drives
   "in" with a random word, settles, calls [f cycle eng] and clocks. *)
let run_seq net ~seed ~cycles f =
  let st = Random.State.make [| seed |] in
  let eng = Engine.create net in
  Engine.reset eng;
  for cycle = 0 to cycles - 1 do
    Engine.set_input_int eng "in" (Random.State.bits st);
    Engine.eval eng;
    f cycle eng;
    Engine.step eng
  done

(* Wherever the stock netlist settles an output bit to 0 or 1 on
   concrete inputs, the optimised one settles it to the same value. *)
let test_resynth_preserves_sequential =
  QCheck.Test.make
    ~name:"resynth preserves sequential behaviour on random netlists"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let net = gen_seq_net seed in
      let opt = Resynth.optimize net in
      let trace n =
        let outs = ref [] in
        run_seq n ~seed ~cycles:8 (fun _ eng ->
            outs := Engine.read eng "out" :: !outs);
        List.rev !outs
      in
      List.for_all2
        (fun want got ->
          Bvec.width want = Bvec.width got
          && List.for_all
               (fun i ->
                 let w = Bvec.get want i in
                 Bit.equal w Bit.X || Bit.equal w (Bvec.get got i))
               (List.init (Bvec.width want) Fun.id))
        (trace net) (trace opt))

(* The witness's oracle is sound: a DFF [Sweep.stuck_dffs] calls
   stuck with a 0/1 reset value reads that value on every cycle of a
   concrete run. *)
let test_stuck_oracle_sound =
  QCheck.Test.make
    ~name:"stuck-DFF oracle holds on concrete runs of random netlists"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let net = gen_seq_net seed in
      let stuck = Sweep.stuck_dffs net in
      let ok = ref true in
      run_seq net ~seed ~cycles:8 (fun _ eng ->
          Array.iteri
            (fun id s ->
              match net.Netlist.gates.(id).Gate.op with
              | Gate.Dff init when s && not (Bit.equal init Bit.X) ->
                if not (Bit.equal (Engine.value eng id) init) then ok := false
              | _ -> ())
            stuck);
      !ok)

(* The generator is not vacuous: over its first seeds the oracle calls
   some DFFs stuck and demotes others. *)
let test_stuck_generator_mixed () =
  let stuck = ref 0 and dffs = ref 0 in
  for seed = 1 to 100 do
    let net = gen_seq_net seed in
    Array.iter (fun b -> if b then incr stuck) (Sweep.stuck_dffs net);
    dffs := !dffs + Netlist.num_dffs net
  done;
  Alcotest.(check bool) "some stuck" true (!stuck > 0);
  Alcotest.(check bool) "some demoted" true (!stuck < !dffs)

(* The witness is not vacuous: on mult (both cores), marking the first
   never-toggled DFF whose D never toggles either as possibly toggled
   keeps it in the raw cut with D tied to its reset value, and the
   witness names that DFF. *)
let test_witness_names_kept_dff () =
  List.iter
    (fun (e : Bespoke_cores.Cores.entry) ->
      let core = e.Bespoke_cores.Cores.core in
      let what = core.Bespoke_coreapi.Coredef.name in
      let b = Option.get (Bespoke_cores.Cores.benchmark e "mult") in
      let report, net = Runner.analyze ~core b in
      let pt = report.Activity.possibly_toggled in
      let id =
        Array.to_seqi net.Netlist.gates
        |> Seq.find_map (fun (id, (g : Gate.t)) ->
               match g.Gate.op with
               | Gate.Dff _ when (not pt.(id)) && not pt.(g.Gate.fanin.(0)) ->
                 Some id
               | _ -> None)
        |> Option.get
      in
      let flipped = Array.copy pt in
      flipped.(id) <- true;
      match
        Witness.stuck_dff net { report with Activity.possibly_toggled = flipped }
      with
      | None -> Alcotest.failf "%s: witness missed DFF %d" what id
      | Some msg ->
        let want = Printf.sprintf "raw cut keeps DFF %d " id in
        Alcotest.(check string) (what ^ ": names the DFF") want
          (String.sub msg 0 (min (String.length msg) (String.length want))))
    Bespoke_cores.Cores.all

(* ---- Cut & stitch on the real core ---- *)

let small_prog =
  {|
start:  mov #0x0280, sp
        mov &0x0010, r4
        xor #0x00ff, r4
        mov r4, &0x0012
        halt
|}

let test_cut_preserves_behaviour () =
  let img = Asm.assemble small_prog in
  let net = Runner.shared_netlist core in
  let sys = System.create ~netlist:net ~core (Msp430.coreimage img) in
  let r = Activity.analyze sys in
  let bespoke, stats =
    Cut.tailor net ~possibly_toggled:r.Activity.possibly_toggled
      ~constants:r.Activity.constant_values
  in
  Alcotest.(check bool) "cut something" true (stats.Cut.cut_gates > 1000);
  Alcotest.(check bool) "smaller" true
    (stats.Cut.bespoke_gates < stats.Cut.original_gates);
  List.iter
    (fun gpio ->
      let a =
        Lockstep.run ~netlist:net ~gpio_in:gpio ~core (Msp430.coreimage img)
      in
      let b =
        Lockstep.run ~netlist:bespoke ~gpio_in:gpio ~core (Msp430.coreimage img)
      in
      Alcotest.(check int)
        (Printf.sprintf "gpio %d" gpio)
        a.Lockstep.gpio_final b.Lockstep.gpio_final;
      Alcotest.(check int) "same cycles" a.Lockstep.cycles
        b.Lockstep.cycles)
    [ 0; 0x5aa5; 0xffff ]

let test_cut_stats_consistent () =
  let img = Asm.assemble small_prog in
  let net = Runner.shared_netlist core in
  let sys = System.create ~netlist:net ~core (Msp430.coreimage img) in
  let r = Activity.analyze sys in
  let stitched =
    Cut.cut_and_stitch net ~possibly_toggled:r.Activity.possibly_toggled
      ~constants:r.Activity.constant_values
  in
  (* stitching keeps the gate array size; untoggled gates become ties *)
  Alcotest.(check int) "array size stable" (Netlist.gate_count net)
    (Netlist.gate_count stitched);
  Alcotest.(check bool) "fewer real gates" true
    (Netlist.num_gates stitched < Netlist.num_gates net)

(* Resynthesis keeps the stock gate order: walking the stitched design
   in id order, each gate that founds a combinational bespoke gate
   (the lowest id mapped to it) lands above the previous one; the
   bespoke design is forward (combinational gates read only lower
   ids); and the compiler recovers ripple-carry adders in it.  The
   raw cut holds no DFF stuck at its reset value ({!Witness}). *)
let test_resynth_keeps_order () =
  List.iter
    (fun ((e : Bespoke_cores.Cores.entry), bench) ->
      let core = e.Bespoke_cores.Cores.core in
      let b = Option.get (Bespoke_cores.Cores.benchmark e bench) in
      let what = core.Bespoke_coreapi.Coredef.name ^ " " ^ bench in
      let report, net = Runner.analyze ~core b in
      let possibly_toggled = report.Activity.possibly_toggled
      and constants = report.Activity.constant_values in
      Option.iter (Alcotest.failf "%s: %s" what) (Witness.stuck_dff net report);
      let stitched = Cut.cut_and_stitch net ~possibly_toggled ~constants in
      let opt, map = Resynth.optimize_traced stitched in
      let founded = Array.make (Netlist.gate_count opt) false in
      let last = ref (-1) in
      Array.iter
        (fun m ->
          if m >= 0 && (not founded.(m)) && not (Gate.is_source opt.Netlist.gates.(m))
          then begin
            founded.(m) <- true;
            if m <= !last then
              Alcotest.failf "%s: bespoke gate %d founded after %d" what m !last;
            last := m
          end)
        map;
      let bespoke, _ = Cut.tailor net ~possibly_toggled ~constants in
      Array.iteri
        (fun id (g : Gate.t) ->
          if not (Gate.is_source g) then
            Array.iter
              (fun f ->
                if f >= id then
                  Alcotest.failf "%s: gate %d reads higher id %d" what id f)
              g.Gate.fanin)
        bespoke.Netlist.gates;
      let s = Bespoke_sim.Compile.stats (Bespoke_sim.Compile.create bespoke) in
      Alcotest.(check bool) (what ^ ": adders recovered") true
        (s.Bespoke_sim.Compile.adders >= 1))
    Bespoke_cores.Cores.
      [ (msp430, "mult"); (msp430, "binSearch"); (rv32, "mult") ]

(* ---- Usage ---- *)

let test_usage_rows_sum () =
  let net = Runner.shared_netlist core in
  let toggled = Array.make (Netlist.gate_count net) true in
  let rows = Usage.per_module net toggled in
  let total_row = List.find (fun r -> r.Usage.module_name = "(total)") rows in
  Alcotest.(check int) "total = real gates" (Netlist.num_gates net)
    total_row.Usage.total;
  Alcotest.(check int) "all active" total_row.Usage.total total_row.Usage.active

let test_compare_unused () =
  let net = Runner.shared_netlist core in
  let ng = Netlist.gate_count net in
  let ta = Array.make ng true and tb = Array.make ng true in
  (* make 10 real gates untoggled only in A, 5 only in B, 3 in both *)
  let real_ids =
    net.Netlist.gates
    |> Array.to_seqi
    |> Seq.filter_map (fun (i, (g : Gate.t)) ->
           match g.Gate.op with
           | Gate.Input | Gate.Const _ -> None
           | _ -> Some i)
    |> List.of_seq
  in
  let pick n l = List.filteri (fun i _ -> i < n) l in
  let a_only = pick 10 real_ids in
  let rest = List.filteri (fun i _ -> i >= 10) real_ids in
  let b_only = pick 5 rest in
  let both = pick 3 (List.filteri (fun i _ -> i >= 5) rest) in
  List.iter (fun i -> ta.(i) <- false) (a_only @ both);
  List.iter (fun i -> tb.(i) <- false) (b_only @ both);
  let d = Usage.compare_unused net ta tb in
  Alcotest.(check int) "common" 3 d.Usage.common_untoggled;
  Alcotest.(check int) "unique a" 10 d.Usage.unique_a;
  Alcotest.(check int) "unique b" 5 d.Usage.unique_b

(* ---- Multi ---- *)

let test_multi_union_and_support () =
  let mk bools = Array.of_list bools in
  let a = mk [ true; false; true; false ] in
  let b = mk [ false; false; true; true ] in
  let u = Multi.union_toggled [ a; b ] in
  Alcotest.(check bool) "union" true (u = mk [ true; false; true; true ]);
  Alcotest.(check bool) "a supported by union" true
    (Multi.supported ~design_toggled:u ~app_toggled:a);
  Alcotest.(check bool) "union not supported by a" false
    (Multi.supported ~design_toggled:a ~app_toggled:u)

let test_multi_design_runs_both () =
  let b1 = B.find "div" and b2 = B.find "convEn" in
  let net = Runner.shared_netlist core in
  let r1, _ = Runner.analyze ~core b1 and r2, _ = Runner.analyze ~core b2 in
  let design, stats =
    Multi.tailor_multi net
      ~reports:
        [
          (r1.Activity.possibly_toggled, r1.Activity.constant_values);
          (r2.Activity.possibly_toggled, r2.Activity.constant_values);
        ]
  in
  Alcotest.(check bool) "still smaller than baseline" true
    (stats.Cut.bespoke_gates < stats.Cut.original_gates);
  ignore (Runner.check_equivalence ~core ~netlist:design b1 ~seed:3);
  ignore (Runner.check_equivalence ~core ~netlist:design b2 ~seed:3)

(* ---- Module pruning baseline ---- *)

let test_module_prune_coarser_than_fine () =
  let b = B.find "binSearch" in
  let net = Runner.shared_netlist core in
  let r, _ = Runner.analyze ~core b in
  let coarse, removed =
    Module_prune.prune net ~possibly_toggled:r.Activity.possibly_toggled
      ~constants:r.Activity.constant_values
  in
  (* binSearch cannot use the multiplier at all *)
  Alcotest.(check bool) "multiplier removed" true (List.mem "multiplier" removed);
  let fine, _ =
    Cut.tailor net ~possibly_toggled:r.Activity.possibly_toggled
      ~constants:r.Activity.constant_values
  in
  Alcotest.(check bool) "fine-grained is smaller" true
    (Netlist.num_gates fine < Netlist.num_gates coarse);
  Alcotest.(check bool) "coarse is smaller than baseline" true
    (Netlist.num_gates coarse < Netlist.num_gates net);
  (* and the coarse design still runs the program *)
  ignore (Runner.check_equivalence ~core ~netlist:coarse b ~seed:2)

(* ---- Profiling vs analysis ---- *)

let test_profiling_never_exceeds_analysis () =
  (* anything profiled as toggled must be in the analysis exercisable
     set (profiling is a subset of all-input behaviour) *)
  let b = B.find "div" in
  let net = Runner.shared_netlist core in
  let r, _ = Runner.analyze ~core b in
  let p = Profiling.profile ~core ~netlist:net ~seeds:[ 1; 2; 3 ] b in
  let ok = ref true in
  Array.iteri
    (fun i t -> if t && not r.Activity.possibly_toggled.(i) then ok := false)
    p.Profiling.union_toggled;
  Alcotest.(check bool) "profiled toggles within analysis set" true !ok

(* ---- Oracular power gating ---- *)

let test_power_gating_bounds () =
  let b = B.find "binSearch" in
  let pg = Bespoke_core.Power_gating.evaluate ~core ~netlist:(Runner.shared_netlist core) b in
  List.iter
    (fun (m, f) ->
      Alcotest.(check bool) (m ^ " idle fraction in range") true
        (f >= 0.0 && f <= 1.0))
    pg.Bespoke_core.Power_gating.module_idle_fraction;
  (* binSearch never touches the multiplier: idle essentially always *)
  let mult_idle =
    List.assoc "multiplier" pg.Bespoke_core.Power_gating.module_idle_fraction
  in
  Alcotest.(check bool) "multiplier idle" true (mult_idle > 0.99);
  (* the oracle bound is real but small (paper Fig 15: < 13%) *)
  Alcotest.(check bool) "saving positive" true
    (pg.Bespoke_core.Power_gating.power_saving_fraction > 0.0);
  Alcotest.(check bool) "saving modest" true
    (pg.Bespoke_core.Power_gating.power_saving_fraction < 0.25)

let test_power_gating_irq_benchmark () =
  (* regression: the evaluator must drive the IRQ schedule *)
  let b = B.find "irq" in
  let pg = Bespoke_core.Power_gating.evaluate ~core ~netlist:(Runner.shared_netlist core) b in
  Alcotest.(check bool) "completed" true
    (pg.Bespoke_core.Power_gating.power_saving_fraction >= 0.0)

(* ---- One stimulus path ---- *)

(* Co-simulation must run the interrupt schedule the ISS and gate-level
   runs use: pulses keyed on retired instructions, not on lockstep
   steps (an interrupt entry is a step that retires nothing). *)
let test_cosim_irq_schedule () =
  List.iter
    (fun (b : B.t) ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "%s seed %d" b.B.name seed in
          let iss = Runner.run_iss ~core b ~seed in
          let gate = Runner.run_gate ~core b ~seed in
          match Runner.co_simulate ~core b ~seed with
          | Error d ->
            Alcotest.failf "%s diverged: %s" name d.Lockstep.detail
          | Ok r ->
            Alcotest.(check int) (name ^ " instructions") iss.Runner.instructions
              r.Lockstep.instructions;
            Alcotest.(check int) (name ^ " cycles vs ISS")
              (iss.Runner.cycles + core.Bespoke_coreapi.Coredef.reset_extra_cycles)
              r.Lockstep.cycles;
            Alcotest.(check int) (name ^ " cycles vs gate") gate.Runner.g_cycles
              r.Lockstep.cycles)
        [ 1; 2; 3; 4 ])
    [ B.find "irq"; Bespoke_programs.Rtos.kernel ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_core"
    [
      ( "resynth",
        [
          qt test_resynth_preserves_function;
          Alcotest.test_case "constant folding" `Quick
            test_resynth_folds_constants;
          Alcotest.test_case "floating gates" `Quick
            test_resynth_removes_floating;
          Alcotest.test_case "DFF tie rule" `Quick test_resynth_dff_rule;
          qt test_resynth_preserves_sequential;
        ] );
      ( "witness",
        [
          qt test_stuck_oracle_sound;
          Alcotest.test_case "stuck-DFF generator mixes verdicts" `Quick
            test_stuck_generator_mixed;
          Alcotest.test_case "names a DFF the cut keeps" `Slow
            test_witness_names_kept_dff;
        ] );
      ( "cut",
        [
          Alcotest.test_case "behaviour preserved" `Slow
            test_cut_preserves_behaviour;
          Alcotest.test_case "stats consistent" `Slow test_cut_stats_consistent;
          Alcotest.test_case "resynthesis keeps gate order" `Slow
            test_resynth_keeps_order;
        ] );
      ( "usage",
        [
          Alcotest.test_case "rows sum" `Quick test_usage_rows_sum;
          Alcotest.test_case "compare unused" `Quick test_compare_unused;
        ] );
      ( "multi",
        [
          Alcotest.test_case "union and support" `Quick
            test_multi_union_and_support;
          Alcotest.test_case "two-app design runs both" `Slow
            test_multi_design_runs_both;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "module pruning" `Slow
            test_module_prune_coarser_than_fine;
          Alcotest.test_case "profiling subset of analysis" `Slow
            test_profiling_never_exceeds_analysis;
          Alcotest.test_case "power gating bounds" `Slow
            test_power_gating_bounds;
          Alcotest.test_case "power gating with irq" `Slow
            test_power_gating_irq_benchmark;
        ] );
      ( "stimulus",
        [
          Alcotest.test_case "co-simulation runs the irq schedule" `Quick
            test_cosim_irq_schedule;
        ] );
    ]
