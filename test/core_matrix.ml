(* Cross-ISA differential test matrix: every suite below is written
   once, against {!Bespoke_coreapi.Coredef} alone, and instantiated
   for every core in the {!Bespoke_cores.Cores} registry — the proof
   that the flow layers are core-agnostic in behavior, not just in
   type.  Per core the matrix checks:

   - lockstep: every registered benchmark runs gate-level vs. the
     core's ISS golden model, exact architectural state at every
     instruction boundary;
   - engines: full-eval, 64-way packed and compiled word-level
     engines are bit-identical on the core's netlist (results, cycles,
     GPIO, per-gate toggle counts);
   - fuzz: the core's seed-replayable random-program generator
     ({!Fuzzgen.program_for}) runs in lockstep; any divergence report
     carries the core name, the seed and the generated assembly, so
     `BESPOKE_FUZZ_SEED=<seed> dune exec test/core_matrix.exe`
     replays it;
   - analysis: on generated programs (beyond the curated suite) the
     symbolic analysis gives the same report and records the same
     replay schedule under the full-sweep oracle and the compiled
     engine, and it is sound: every gate that toggles in a concrete
     run on random GPIO words is marked possibly-toggled, so none of
     them would be cut, the raw cut holds no DFF stuck at its reset
     value ({!Witness}), and the tailored design passes the symbolic
     replay of the recorded exploration;
   - serialization: the stock and tailored netlists survive a
     to_string/of_string round trip as a byte-identical fixpoint;
   - guard: the cut-assumption shadow watcher stays silent when the
     tailored design replays the very workload it was tailored to.

   Adding a third core to the registry adds a full column to this
   matrix with no new test code. *)

module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module Serial = Bespoke_netlist.Serial
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Engine = Bespoke_sim.Engine
module Sweep = Bespoke_oracle.Sweep
module Cut = Bespoke_core.Cut
module Coredef = Bespoke_coreapi.Coredef
module Lockstep = Bespoke_coreapi.Lockstep
module Cores = Bespoke_cores.Cores
module Guard = Bespoke_guard.Guard

(* ------------------------------------------------------------------ *)

module Make (E : sig
  val entry : Cores.entry
end) =
struct
  let core = E.entry.Cores.core
  let cname = core.Coredef.name
  let benches = E.entry.Cores.benchmarks
  let stock = lazy (Runner.shared_netlist core)

  (* a small representative workload for the expensive suites: the
     first registered benchmark *)
  let rep () =
    match benches with
    | b :: _ -> b
    | [] -> Alcotest.failf "core %s registers no benchmarks" cname

  (* lockstep: ISS vs gate level on every registered benchmark *)
  let test_lockstep () =
    List.iter
      (fun (b : B.t) ->
        List.iter
          (fun seed ->
            match Runner.co_simulate ~core b ~seed with
            | Ok _ -> ()
            | Error (d : Lockstep.divergence_info) ->
              Alcotest.failf "%s/%s seed %d diverged at insn %d pc %0*x: %s"
                cname b.B.name seed d.Lockstep.at_insn
                (Coredef.hex_digits core) d.Lockstep.at_pc d.Lockstep.detail)
          [ 1; 2 ])
      benches

  (* engines: all three simulation engines bit-identical *)
  let check_outcome_equal name tag (a : Runner.gate_outcome)
      (b : Runner.gate_outcome) =
    Alcotest.(check (list (pair int (option int))))
      (name ^ ": " ^ tag ^ " results") a.Runner.g_results b.Runner.g_results;
    Alcotest.(check int)
      (name ^ ": " ^ tag ^ " cycles") a.Runner.g_cycles b.Runner.g_cycles;
    Alcotest.(check (option int))
      (name ^ ": " ^ tag ^ " gpio") a.Runner.g_gpio_out b.Runner.g_gpio_out;
    Alcotest.(check int)
      (name ^ ": " ^ tag ^ " sim_cycles")
      a.Runner.sim_cycles b.Runner.sim_cycles;
    Alcotest.(check bool)
      (name ^ ": " ^ tag ^ " toggles")
      true
      (a.Runner.toggles = b.Runner.toggles)

  let test_engines () =
    let net = Lazy.force stock in
    let seeds = [ 1; 2 ] in
    List.iter
      (fun (b : B.t) ->
        let name = cname ^ "/" ^ b.B.name in
        let run engine =
          List.map
            (fun seed -> Runner.run_gate ~core ~engine ~netlist:net b ~seed)
            seeds
        in
        let full = run Sweep.create in
        let compiled = run Engine.create in
        let packed =
          List.map snd (Runner.run_gate_packed ~core ~netlist:net b ~seeds)
        in
        List.iter2 (check_outcome_equal name "packed") full packed;
        List.iter2 (check_outcome_equal name "compiled") full compiled)
      benches

  (* fuzz: the core's own generator, in lockstep, replayable by seed *)
  let report_divergence ~seed ~src what detail =
    QCheck.Test.fail_reportf
      "core %s seed %d %s: %s@\n\
       replay: BESPOKE_FUZZ_SEED=%d dune exec test/core_matrix.exe@\n\
       --- generated %s assembly (seed %d) ---@\n\
       %s--- end assembly ---"
      cname seed what detail seed cname seed src

  let fuzz_one ~seed ~gpio =
    let src = Fuzzgen.program_for core ~seed in
    match core.Coredef.assemble src with
    | exception e ->
      report_divergence ~seed ~src "generator produced bad asm"
        (Printexc.to_string e)
    | img -> (
      match
        Lockstep.run ~netlist:(Lazy.force stock) ~gpio_in:gpio ~core img
      with
      | _ -> true
      | exception Lockstep.Divergence m ->
        report_divergence ~seed ~src
          (Printf.sprintf "(gpio 0x%04x) diverged" gpio)
          m)

  let test_fuzz =
    QCheck.Test.make
      ~name:(Printf.sprintf "%s random programs run in exact lockstep" cname)
      ~count:25
      QCheck.(pair (int_bound 1_000_000) (int_bound 0xffff))
      (fun (seed, gpio) -> fuzz_one ~seed ~gpio)

  (* analysis: sweep vs compiled report and schedule, no stuck DFF in
     the raw cut, the tailored design's replay, then soundness against
     concrete runs.  GPIO is X in the analysis and a random word in
     each concrete run; the programs use no RAM inputs and no IRQs. *)
  let analysis_seeds = List.init 8 (fun i -> i + 1)

  let check_analysis ~seed =
    let src = Fuzzgen.program_for core ~seed in
    let b =
      B.mk ~result_addrs:[]
        ~gen_inputs:(fun s -> ([], (seed * 40503 + s * 7919) land 0xffff))
        (Printf.sprintf "fuzz%d" seed) "generated program" src
    in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Alcotest.failf
            "core %s seed %d: %s\n\
             replay: BESPOKE_FUZZ_SEED=%d dune exec test/core_matrix.exe\n\
             --- generated %s assembly (seed %d) ---\n\
             %s--- end assembly ---"
            cname seed m seed cname seed src)
        fmt
    in
    let net = Lazy.force stock in
    let full =
      Activity.analyze ~config:(Runner.resolve_analysis_config b)
        (Bespoke_coreapi.System.create ~engine:Sweep.create ~netlist:net ~core
           (Runner.image ~core b))
    and compiled = fst (Runner.analyze ~netlist:net ~core b) in
    let same what x y =
      if x <> y then fail "full and compiled analyses differ in %s" what
    in
    same "possibly_toggled" full.Activity.possibly_toggled
      compiled.Activity.possibly_toggled;
    same "constant_values" full.Activity.constant_values
      compiled.Activity.constant_values;
    same "paths" full.Activity.paths compiled.Activity.paths;
    same "merges" full.Activity.merges compiled.Activity.merges;
    same "prunes" full.Activity.prunes compiled.Activity.prunes;
    let sf = full.Activity.schedule and sc = compiled.Activity.schedule in
    same "schedule ops" sf.Activity.ops sc.Activity.ops;
    same "schedule registers" sf.Activity.regs sc.Activity.regs;
    same "schedule RAM records" sf.Activity.ram sc.Activity.ram;
    same "schedule keys" sf.Activity.keys sc.Activity.keys;
    Option.iter (fail "%s") (Witness.stuck_dff net compiled);
    (* the tailored design replays the recorded exploration *)
    (let bespoke, _ =
       Cut.tailor net ~possibly_toggled:compiled.Activity.possibly_toggled
         ~constants:compiled.Activity.constant_values
     in
     let sh =
       Bespoke_coreapi.System.create ~netlist:bespoke ~core
         (Runner.image ~core b)
     in
     match Activity.replay compiled sh with
     | () -> ()
     | exception Activity.Shadow_mismatch m ->
       fail "bespoke design fails the symbolic replay: %s" m);
    List.iter
      (fun run ->
        let o = Runner.run_gate ~core ~netlist:net b ~seed:run in
        let toggled id = o.Runner.toggles.(id) > 0 in
        match
          Seq.find
            (fun id -> toggled id && not full.Activity.possibly_toggled.(id))
            (Seq.init (Array.length o.Runner.toggles) Fun.id)
        with
        | None -> ()
        | Some id ->
          fail
            "unsound analysis: gate %d [%s] (module %S) toggles %d time(s) \
             on GPIO 0x%04x but is marked never-toggling"
            id
            (String.concat ", " (Netlist.names_of net id))
            (Netlist.module_of net id) o.Runner.toggles.(id)
            (snd (b.B.gen_inputs run)))
      [ 1; 2; 3 ]

  let test_analysis () =
    List.iter (fun seed -> check_analysis ~seed) analysis_seeds

  let replay_cases =
    match Sys.getenv_opt "BESPOKE_FUZZ_SEED" with
    | None -> []
    | Some s ->
      let seed = int_of_string s in
      [
        Alcotest.test_case
          (Printf.sprintf "replay seed %d" seed)
          `Quick
          (fun () ->
            let src = Fuzzgen.program_for core ~seed in
            Printf.printf "--- generated %s assembly (seed %d) ---\n%s%!"
              cname seed src;
            ignore (fuzz_one ~seed ~gpio:0);
            check_analysis ~seed);
      ]

  (* serialization: stock and tailored netlists round-trip *)
  let bespoke_of b =
    let report, net = Runner.analyze ~core b in
    Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
      ~constants:report.Activity.constant_values

  let roundtrip what net =
    let s1 = Serial.to_string net in
    let net' = Serial.of_string s1 in
    let s2 = Serial.to_string net' in
    Alcotest.(check string) (what ^ " fixpoint") s1 s2;
    Alcotest.(check int)
      (what ^ " gate count")
      (Array.length net.Netlist.gates)
      (Array.length net'.Netlist.gates)

  let test_serial () =
    roundtrip (cname ^ " stock") (Lazy.force stock);
    let b = rep () in
    let bespoke, stats = bespoke_of b in
    Alcotest.(check bool)
      (cname ^ "/" ^ b.B.name ^ " tailoring cuts gates")
      true
      (stats.Cut.bespoke_gates < stats.Cut.original_gates);
    roundtrip (cname ^ " bespoke " ^ b.B.name) bespoke

  (* guard: the shadow watcher is silent on the tailored workload *)
  let test_guard_clean () =
    let b = rep () in
    let report, net = Runner.analyze ~core b in
    let bespoke, _, prov =
      Cut.tailor_explained net
        ~possibly_toggled:report.Activity.possibly_toggled
        ~constants:report.Activity.constant_values
    in
    let plan =
      Guard.plan ~original:net ~bespoke ~prov
        ~possibly_toggled:report.Activity.possibly_toggled
        ~constants:report.Activity.constant_values
    in
    let w = Guard.watch_bespoke plan in
    let r = Guard.replay ~core w ~netlist:bespoke b ~seed:1 in
    (match r.Guard.rp_result with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s replay did not halt: %s" cname m);
    Alcotest.(check int)
      (cname ^ " watcher silent on own workload")
      0
      (Guard.total_violations w)

  let suites =
    let tc name f = Alcotest.test_case name `Quick f in
    [
      ( cname,
        [
          tc "lockstep on all benchmarks" test_lockstep;
          tc "three engines bit-identical" test_engines;
          QCheck_alcotest.to_alcotest test_fuzz;
          tc "analysis: full = compiled, sound on fuzz programs"
            test_analysis;
          tc "serialization fixpoint" test_serial;
          tc "guard watcher clean" test_guard_clean;
        ]
        @ replay_cases );
    ]
end

let () =
  let suites =
    List.concat_map
      (fun entry ->
        let module M = Make (struct
          let entry = entry
        end) in
        M.suites)
      Cores.all
  in
  Alcotest.run "core_matrix" suites
