(* Unit tests for the verification-campaign subsystem: shrinking,
   fault injection, a small fixed-seed campaign, and the JSON
   artifact. *)

module B = Bespoke_programs.Benchmark
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Bit = Bespoke_logic.Bit
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Activity = Bespoke_analysis.Activity
module Lockstep = Bespoke_coreapi.Lockstep
module Obs = Bespoke_obs.Obs
module Fault = Bespoke_verify.Fault
module Shrink = Bespoke_verify.Shrink
module Verify = Bespoke_verify.Verify
module Coredef = Bespoke_coreapi.Coredef
let core = Bespoke_cpu.Msp430.core

(* --- shrinking ------------------------------------------------------ *)

let test_minimize_single () =
  let calls = ref 0 in
  let failing l = incr calls; List.mem 42 l in
  let r = Shrink.minimize failing [ 3; 17; 42; 5; 9 ] in
  Alcotest.(check (list int)) "only the culprit" [ 42 ] r;
  Alcotest.(check bool) "bounded work" true (!calls < 30)

let test_minimize_pair () =
  (* needs both 1 and 2: greedy must keep exactly those *)
  let failing l = List.mem 1 l && List.mem 2 l in
  let r = Shrink.minimize failing [ 9; 1; 7; 2; 5 ] in
  Alcotest.(check (list int)) "the pair" [ 1; 2 ] r

let test_minimize_keeps_failure () =
  let failing l = List.length l >= 3 in
  let r = Shrink.minimize failing [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check int) "1-minimal" 3 (List.length r);
  Alcotest.(check bool) "still failing" true (failing r)

let info = { Lockstep.at_insn = 7; at_pc = 0x4400; what = "regs"; detail = "r4" }

let test_of_seeds () =
  let checks = ref 0 in
  let check s = incr checks; if s mod 3 = 0 then Some info else None in
  match Shrink.of_seeds ~check [ 1; 2; 6; 9; 4 ] with
  | None -> Alcotest.fail "divergence lost"
  | Some r ->
    Alcotest.(check int) "single diverging seed" 1 (List.length r.Shrink.seeds);
    Alcotest.(check bool) "a diverging seed" true
      (List.hd r.Shrink.seeds mod 3 = 0);
    Alcotest.(check int) "minimal insn kept" 7 r.Shrink.info.Lockstep.at_insn;
    (* memoized: one co-simulation per distinct seed at most *)
    Alcotest.(check bool) "memoized" true (!checks <= 5)

let test_of_seeds_clean () =
  Alcotest.(check bool) "no divergence, no repro" true
    (Shrink.of_seeds ~check:(fun _ -> None) [ 1; 2; 3 ] = None)

(* --- fault injection ------------------------------------------------ *)

let bespoke_mult =
  lazy
    (let report, net = Runner.analyze ~core (B.find "mult") in
     Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
       ~constants:report.Activity.constant_values
     |> fst)

let all_exercised net =
  Array.map
    (fun (g : Gate.t) ->
      match g.Gate.op with Gate.Input | Gate.Const _ -> 0 | _ -> 1)
    net.Netlist.gates

(* any register file will do for drawing: it only picks stuck values *)
let first_boundary _ = 0

let test_generate_deterministic () =
  let net = Lazy.force bespoke_mult in
  let toggles = all_exercised net in
  let a = Fault.generate ~core ~seed:3 ~n:8 ~toggles ~first_boundary net in
  let b = Fault.generate ~core ~seed:3 ~n:8 ~toggles ~first_boundary net in
  Alcotest.(check int) "n faults" 8 (List.length a);
  Alcotest.(check bool) "same seed, same faults" true (a = b);
  let c = Fault.generate ~core ~seed:4 ~n:8 ~toggles ~first_boundary net in
  Alcotest.(check bool) "different seed, different draw" true (a <> c);
  (* distinct sites *)
  let sites = List.map (fun f -> f.Fault.gate) a in
  Alcotest.(check int) "no site reused" (List.length sites)
    (List.length (List.sort_uniq compare sites))

let test_inject_one_gate () =
  let net = Lazy.force bespoke_mult in
  let toggles = all_exercised net in
  List.iter
    (fun f ->
      let mutant = Fault.inject net f in
      let changed = ref 0 in
      Array.iteri
        (fun i (g : Gate.t) ->
          if g <> net.Netlist.gates.(i) then incr changed;
          ignore i)
        mutant.Netlist.gates;
      Alcotest.(check int)
        (Printf.sprintf "fault %d (%s) changes one gate" f.Fault.id
           (Fault.kind_name f.Fault.kind))
        1 !changed;
      match f.Fault.kind with
      | Fault.Stuck_at v ->
        Alcotest.(check bool) "stuck gate is a tie" true
          (mutant.Netlist.gates.(f.Fault.gate).Gate.op = Gate.Const v)
      | _ -> ())
    (Fault.generate ~core ~seed:1 ~n:10 ~toggles ~first_boundary net)

(* --- a small fixed-seed campaign ------------------------------------ *)

let campaign = lazy (Verify.check_benchmark ~core ~faults:4 ~seed:1 (B.find "mult"))

let test_campaign_equivalent () =
  let c = Lazy.force campaign in
  Alcotest.(check bool) "equivalent" true c.Verify.equivalent;
  Alcotest.(check bool) "symbolic ok" true c.Verify.symbolic.Verify.sym_ok;
  Alcotest.(check bool) "paths compared" true
    (c.Verify.symbolic.Verify.sym_paths >= 1);
  Alcotest.(check bool) "inputs ran" true (c.Verify.inputs <> []);
  Alcotest.(check bool) "no unfaulted divergence" true (c.Verify.repro = None);
  Alcotest.(check bool) "gate coverage positive" true (c.Verify.gate_pct > 0.0);
  Alcotest.(check bool) "bespoke smaller" true
    (c.Verify.gates_bespoke < c.Verify.gates_original)

let test_campaign_kills () =
  let c = Lazy.force campaign in
  let s = Verify.kill_stats c in
  Alcotest.(check int) "all injected" 4 s.Verify.injected;
  Alcotest.(check int) "classes partition the faults" s.Verify.injected
    (s.Verify.killed_input + s.Verify.killed_symbolic + s.Verify.survived);
  Alcotest.(check bool) "a detectable fault was drawn" true
    (s.Verify.detectable >= 1);
  Alcotest.(check (float 0.01)) "detectable kill score" 100.0
    (Verify.detectable_score_pct s);
  List.iter
    (fun fr ->
      match fr.Verify.kill with
      | Verify.Killed_input r ->
        Alcotest.(check bool) "shrunk repro non-empty" true
          (r.Shrink.seeds <> [])
      | _ -> ())
    c.Verify.faults

(* Every detectable fault must be killed, on every fault seed: a sweep
   of seeds 1-10 at two faults on mult and irq.  Seed 4 on mult and
   seed 10 on irq draw a high PC bit (pc[12], pc[13]) into the
   detectable class — a bit only reset toggles, so a stuck value equal
   to its value after reset would be an equivalent fault. *)
let test_detectable_always_killed () =
  List.iter
    (fun name ->
      for seed = 1 to 10 do
        let c = Verify.check_benchmark ~core ~faults:2 ~seed (B.find name) in
        let s = Verify.kill_stats c in
        let tag = Printf.sprintf "%s fault seed %d" name seed in
        Alcotest.(check bool) (tag ^ ": a detectable fault was drawn") true
          (s.Verify.detectable >= 1);
        Alcotest.(check (float 0.01)) (tag ^ ": detectable kill score") 100.0
          (Verify.detectable_score_pct s)
      done)
    [ "mult"; "irq" ]

(* --- telemetry: the verify layers, and no re-analysis ------------------ *)

(* The span events of [check_benchmark ~faults:2 ~seed:1] on mult with
   the tailoring already cached.  Fault 1 of that draw (a stuck xor in
   the multiplier) survives every input, so the symbolic layer runs
   twice: once on the bespoke design, once as that fault's fallback. *)
let traced_mult =
  lazy
    (let b = B.find "mult" in
     ignore (Runner.tailor_cached ~core b);
     Obs.enable ();
     Obs.reset ();
     Fun.protect
       ~finally:(fun () ->
         Obs.reset ();
         Obs.disable ())
       (fun () ->
         ignore (Verify.check_benchmark ~core ~faults:2 ~seed:1 b);
         Obs.Trace.events ()))

let begins name =
  List.length
    (List.filter
       (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = name && e.Obs.Trace.ph = 'B')
       (Lazy.force traced_mult))

(* Every layer span opens inside verify.campaign, and the replay inside
   the symbolic layer. *)
let test_layer_spans_nest () =
  let stack = ref [] and seen = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.ph with
      | 'B' ->
        seen := (e.Obs.Trace.name, !stack) :: !seen;
        stack := e.Obs.Trace.name :: !stack
      | 'E' -> stack := List.tl !stack
      | _ -> ())
    (Lazy.force traced_mult);
  let enclosing name =
    match List.assoc_opt name !seen with
    | Some s -> s
    | None -> Alcotest.failf "no %s span" name
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " inside verify.campaign")
        true
        (List.mem "verify.campaign" (enclosing name)))
    [
      "verify.explore"; "verify.inputs"; "verify.symbolic"; "verify.guard";
      "verify.fault"; "verify.shrink"; "verify.inject"; "analysis.replay";
    ];
  Alcotest.(check (option string)) "replay inside verify.symbolic"
    (Some "verify.symbolic")
    (List.nth_opt (enclosing "analysis.replay") 0)

(* The symbolic layer replays the cached analysis: no exploration runs
   again, for the benchmark or for the fault that reaches it. *)
let test_no_reanalysis () =
  Alcotest.(check int) "analysis.analyze spans" 0 (begins "analysis.analyze");
  Alcotest.(check int) "verify.symbolic spans" 2 (begins "verify.symbolic");
  Alcotest.(check int) "analysis.replay spans" 2 (begins "analysis.replay")

let test_json_artifact () =
  let c = Lazy.force campaign in
  (* the verify reader holds it to the whole contract: every layer
     agrees and every detectable fault is killed *)
  match Bespoke_obs.Stats.read ~name:"verify" (Verify.to_json [ c ]) with
  | Ok (Bespoke_obs.Stats.Verify (core_name, [ b ])) ->
    Alcotest.(check string) "core" core.Coredef.name core_name;
    Alcotest.(check (option string)) "benchmark name" (Some "mult")
      (Obs.Json.mem_str "name" b)
  | Ok _ -> Alcotest.fail "expected a verify artifact with one benchmark"
  | Error m -> Alcotest.failf "artifact rejected: %s" m

(* A divergence's [at_insn] counts retired instructions, like the IRQ
   schedule: on msp430 irq, fault seed 1's input-killed faults are
   co-simulated again with an ISS that counts its steps, and each
   reported index must be the ISS's retired count after the step the
   mismatch showed at.  One fault diverges after interrupt entries,
   where the step count runs ahead of the retired count. *)
let test_at_insn_counts_retired () =
  let b = B.find "irq" in
  let c = Verify.check_benchmark ~faults:2 ~seed:1 ~core b in
  let bespoke = (Runner.tailor_cached ~core b).Runner.bespoke in
  let img = Runner.image ~core b in
  let after_entry = ref 0 in
  List.iter
    (fun (fr : Verify.fault_result) ->
      match fr.Verify.kill with
      | Verify.Killed_input r ->
        let steps = ref 0 and retired = ref 0 in
        let counting =
          {
            img with
            Coredef.mk_iss =
              (fun () ->
                let iss = img.Coredef.mk_iss () in
                {
                  iss with
                  Coredef.step =
                    (fun () ->
                      iss.Coredef.step ();
                      incr steps;
                      retired := iss.Coredef.retired ());
                });
          }
        in
        let st = Runner.stimulus b ~seed:(List.hd r.Shrink.seeds) in
        (match
           Lockstep.run_result
             ~netlist:(Fault.inject bespoke fr.Verify.fault)
             ~gpio_in:st.Runner.gpio ~ram_writes:st.Runner.ram_writes
             ~irq_pulse_at:st.Runner.pulses ~x_dont_care:true ~core counting
         with
        | Ok _ -> Alcotest.fail "the repro no longer diverges"
        | Error info ->
          Alcotest.(check string) "same divergence as the campaign's"
            r.Shrink.info.Lockstep.detail info.Lockstep.detail;
          Alcotest.(check int) "at_insn is the retired count" !retired
            info.Lockstep.at_insn;
          let prefix = Printf.sprintf "insn %d:" !retired in
          Alcotest.(check string) "detail names the retired count" prefix
            (String.sub info.Lockstep.detail 0 (String.length prefix)));
        if !steps > !retired then incr after_entry
      | _ -> ())
    c.Verify.faults;
  Alcotest.(check bool) "a divergence after an interrupt entry" true
    (!after_entry > 0)

let () =
  Alcotest.run "bespoke_verify"
    [
      ( "shrink",
        [
          Alcotest.test_case "minimize to culprit" `Quick test_minimize_single;
          Alcotest.test_case "minimize keeps a pair" `Quick test_minimize_pair;
          Alcotest.test_case "1-minimal result" `Quick test_minimize_keeps_failure;
          Alcotest.test_case "of_seeds shrinks" `Quick test_of_seeds;
          Alcotest.test_case "of_seeds clean" `Quick test_of_seeds_clean;
        ] );
      ( "fault",
        [
          Alcotest.test_case "deterministic draw" `Quick
            test_generate_deterministic;
          Alcotest.test_case "one-gate mutants" `Quick test_inject_one_gate;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "mult equivalent" `Quick test_campaign_equivalent;
          Alcotest.test_case "fault kills" `Quick test_campaign_kills;
          Alcotest.test_case "detectable faults killed, seeds 1-10" `Quick
            test_detectable_always_killed;
          Alcotest.test_case "json artifact" `Quick test_json_artifact;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "layer spans nest under verify.campaign" `Quick
            test_layer_spans_nest;
          Alcotest.test_case "no re-analysis on a warm cache" `Quick
            test_no_reanalysis;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "at_insn counts retired instructions" `Quick
            test_at_insn_counts_retired;
        ] );
    ]
