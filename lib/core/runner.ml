module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Serial = Bespoke_netlist.Serial
module Engine = Bespoke_sim.Engine
module Engine64 = Bespoke_sim.Engine64
module Coredef = Bespoke_coreapi.Coredef
module System = Bespoke_coreapi.System
module System64 = Bespoke_coreapi.System64
module Lockstep = Bespoke_coreapi.Lockstep
module Activity = Bespoke_analysis.Activity
module Benchmark = Bespoke_programs.Benchmark
module Obs = Bespoke_obs.Obs

let m_gate_runs = Obs.Metrics.counter "runner.gate_runs"

(* Uniform engine selector shared by the library entry points and the
   CLI.  [Packed] is seed-parallel (one Engine64 lane per seed); the
   other two map onto {!Engine.mode} for a single scalar run. *)
type engine = Full | Packed | Compiled

let all_engines = [ Full; Packed; Compiled ]

let engine_to_string = function
  | Full -> "full"
  | Packed -> "packed"
  | Compiled -> "compiled"

let engine_of_string = function
  | "full" -> Some Full
  | "packed" -> Some Packed
  | "compiled" -> Some Compiled
  | _ -> None

let mode_of_engine = function
  | Full -> Engine.Full
  | Compiled -> Engine.Compiled
  | Packed ->
    invalid_arg "Runner.mode_of_engine: packed is seed-parallel, not a mode"

type iss_outcome = {
  results : (int * int) list;
  cycles : int;
  instructions : int;
  gpio_out : int;
}

type gate_outcome = {
  g_results : (int * int option) list;
  g_cycles : int;
  g_gpio_out : int option;
  toggles : int array;
  sim_cycles : int;
}

exception Mismatch of string

(* ------------------------------------------------------------------ *)
(* Per-core memoization.  One stock netlist (and its Serial hash) per
   core descriptor, keyed by core name; one assembled image per
   (core, source digest), so re-assembly of mutant sources never
   collides with the pristine benchmark.  As with the old lazy cell:
   force these in the parent before fanning out with [Pool] — the
   tables are not domain-safe. *)

let netlist_table : (string, Netlist.t * string) Hashtbl.t = Hashtbl.create 4

let shared_netlist_entry (core : Coredef.t) =
  match Hashtbl.find_opt netlist_table core.Coredef.name with
  | Some e -> e
  | None ->
    let net = core.Coredef.build () in
    let e = (net, Serial.hash net) in
    Hashtbl.replace netlist_table core.Coredef.name e;
    e

let shared_netlist core = fst (shared_netlist_entry core)
let shared_netlist_hash core = snd (shared_netlist_entry core)

let netlist_hash ~core net =
  match Hashtbl.find_opt netlist_table core.Coredef.name with
  | Some (n, h) when n == net -> h
  | _ -> Serial.hash net

let image_table : (string, Coredef.image) Hashtbl.t = Hashtbl.create 64

let image ~core (b : Benchmark.t) =
  let key = core.Coredef.name ^ "/" ^ Digest.to_hex (Digest.string b.Benchmark.source) in
  match Hashtbl.find_opt image_table key with
  | Some img -> img
  | None ->
    let img = core.Coredef.assemble b.Benchmark.source in
    Hashtbl.replace image_table key img;
    img

(* ------------------------------------------------------------------ *)
(* Content-addressed keys for the flow cache: a binary-image hash, a
   netlist hash and a config fingerprint covering every field that can
   change the analysis result.  The core fingerprint is a separate key
   component wherever these are combined. *)

let image_hash = Coredef.image_hash

let config_fingerprint (c : Activity.config) =
  (* [verbose] only changes logging and [probe] bypasses the cache
     entirely, so neither is part of the fingerprint. *)
  let ranges =
    String.concat ","
      (List.map
         (fun (a, b) -> Printf.sprintf "%x-%x" a b)
         c.Activity.ram_x_ranges)
  in
  Printf.sprintf "gpio_x=%b;irq_x=%b;ram=%s;cycles=%d;paths=%d;pc=%d;cbf=%s;key=%s"
    c.Activity.gpio_x c.Activity.irq_x ranges c.Activity.max_total_cycles
    c.Activity.max_paths c.Activity.max_pc_candidates
    (match c.Activity.computed_branch_fallback with
    | `Escape -> "escape"
    | `Enumerate -> "enumerate")
    (match c.Activity.key_refinement with
    | `Pc_only -> "pc"
    | `Pc_gie -> "pc_gie"
    | `Full -> "full")

let run_iss ~core (b : Benchmark.t) ~seed =
  let img = image ~core b in
  let t = img.Coredef.mk_iss () in
  t.Coredef.reset ();
  let ram_writes, gpio = b.Benchmark.gen_inputs seed in
  List.iter (fun (a, v) -> t.Coredef.write_ram_word a v) ram_writes;
  t.Coredef.set_gpio_in gpio;
  let pulses = if b.Benchmark.uses_irq then b.Benchmark.irq_pulses seed else [] in
  let limit = 2_000_000 in
  let n = ref 0 in
  while (not (t.Coredef.halted ())) && !n < limit do
    t.Coredef.set_irq_line (List.mem (t.Coredef.retired ()) pulses);
    t.Coredef.step ();
    incr n
  done;
  if not (t.Coredef.halted ()) then
    failwith (Printf.sprintf "Runner.run_iss %s: did not halt" b.Benchmark.name);
  {
    results =
      List.map (fun a -> (a, t.Coredef.read_ram_word a)) b.Benchmark.result_addrs;
    cycles = t.Coredef.cycles ();
    instructions = t.Coredef.retired ();
    gpio_out = t.Coredef.gpio_out ();
  }

let run_gate_scalar ~mode ?attach ?netlist ?(max_cycles = 3_000_000) ~core
    (b : Benchmark.t) ~seed =
  Obs.Span.with_ ~name:"runner.run_gate"
    ~args:[ ("benchmark", b.Benchmark.name); ("seed", string_of_int seed) ]
  @@ fun () ->
  Obs.Metrics.incr m_gate_runs;
  let img = image ~core b in
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let sys = System.create ~mode ~netlist:net ~core img in
  (match attach with None -> () | Some f -> f (System.engine sys));
  System.reset sys;
  let ram_writes, gpio = b.Benchmark.gen_inputs seed in
  List.iter (fun (a, v) -> System.load_ram_word sys a v) ram_writes;
  System.set_gpio_in_int sys gpio;
  System.set_irq sys Bit.Zero;
  let pulses = if b.Benchmark.uses_irq then b.Benchmark.irq_pulses seed else [] in
  (* Schedule IRQ pulses by retired-instruction count, exactly like
     the ISS: the count advances at every boundary that follows a
     completed instruction — not at the first fetch, and not at the
     boundary after an IRQ-entry sequence (which retires nothing). *)
  let completed = ref 0 in
  let first = ref true in
  let after_irq_entry = ref false in
  let deadline = max_cycles in
  while (not (System.halted sys)) && System.cycles sys < deadline do
    (match Bit.of_int_exn (System.insn_boundary_code sys) with
    | Bit.One ->
      if !first then first := false
      else if !after_irq_entry then after_irq_entry := false
      else incr completed;
      (match System.fetching sys with
      | Bit.Zero -> after_irq_entry := true  (* pre-empted: IRQ entry next *)
      | Bit.One | Bit.X -> ());
      System.set_irq sys (Bit.of_bool (List.mem !completed pulses))
    | Bit.Zero | Bit.X -> ());
    System.step_cycle sys
  done;
  if not (System.halted sys) then
    failwith (Printf.sprintf "Runner.run_gate %s: did not halt" b.Benchmark.name);
  {
    g_results =
      List.map
        (fun a -> (a, Bvec.to_int (System.read_ram_word sys a)))
        b.Benchmark.result_addrs;
    g_cycles = System.cycles sys;
    g_gpio_out = Bvec.to_int (System.gpio_out sys);
    toggles = Engine.toggle_counts (System.engine sys);
    sim_cycles = System.cycles sys;
  }

(* Packed counterpart of [run_gate]: one lane per seed, all lanes
   advancing through the same global cycle loop.  The per-lane IRQ
   bookkeeping, halt detection and deadline mirror [run_gate] exactly,
   and lanes leave the active set when (and only when) the scalar loop
   would have exited, so every lane's toggle counts are bit-identical
   to its scalar run. *)
let run_packed_chunk ?attach64 ~netlist ~max_cycles ~core (b : Benchmark.t)
    (seeds : int array) =
  Obs.Span.with_ ~name:"runner.run_gate_packed"
    ~args:
      [
        ("benchmark", b.Benchmark.name);
        ("lanes", string_of_int (Array.length seeds));
      ]
  @@ fun () ->
  let lanes = Array.length seeds in
  let img = image ~core b in
  let sys = System64.create ~lanes ~netlist ~core img in
  (match attach64 with None -> () | Some f -> f (System64.engine sys));
  System64.reset sys;
  Array.iteri
    (fun lane seed ->
      let ram_writes, gpio = b.Benchmark.gen_inputs seed in
      List.iter (fun (a, v) -> System64.load_ram_word sys lane a v) ram_writes;
      System64.set_gpio_in_lane_int sys lane gpio)
    seeds;
  System64.set_irq_lanes sys (Array.make lanes Bit.Zero);
  let pulses =
    Array.map
      (fun seed ->
        if b.Benchmark.uses_irq then b.Benchmark.irq_pulses seed else [])
      seeds
  in
  let completed = Array.make lanes 0 in
  let first = Array.make lanes true in
  let after_irq_entry = Array.make lanes false in
  let irq_next = Array.make lanes Bit.Zero in
  let halt_cycle = Array.make lanes (-1) in
  let gpio_at_halt = Array.make lanes None in
  let active = ref ((1 lsl lanes) - 1) in
  let capture_halts () =
    for lane = 0 to lanes - 1 do
      if !active land (1 lsl lane) <> 0 && System64.halted_lane sys lane then begin
        active := !active land lnot (1 lsl lane);
        halt_cycle.(lane) <- System64.cycles sys;
        (* the lane's netlist keeps evaluating while other lanes run,
           so capture volatile outputs at the scalar exit point *)
        gpio_at_halt.(lane) <-
          Some (Bvec.to_int (System64.gpio_out_lane sys lane))
      end
    done
  in
  capture_halts ();
  while !active <> 0 && System64.cycles sys < max_cycles do
    for lane = 0 to lanes - 1 do
      if !active land (1 lsl lane) <> 0 then begin
        (match (System64.read_hook_lane sys "insn_boundary" lane).(0) with
        | Bit.One ->
          if first.(lane) then first.(lane) <- false
          else if after_irq_entry.(lane) then after_irq_entry.(lane) <- false
          else completed.(lane) <- completed.(lane) + 1;
          (match (System64.read_hook_lane sys "fetching" lane).(0) with
          | Bit.Zero -> after_irq_entry.(lane) <- true
          | Bit.One | Bit.X -> ());
          irq_next.(lane) <-
            Bit.of_bool (List.mem completed.(lane) pulses.(lane))
        | Bit.Zero | Bit.X -> ())
      end
    done;
    System64.set_irq_lanes sys irq_next;
    System64.step_cycle sys ~active:!active;
    capture_halts ()
  done;
  if !active <> 0 then
    failwith
      (Printf.sprintf "Runner.run_gate_packed %s: did not halt" b.Benchmark.name);
  let eng = System64.engine sys in
  Array.to_list
    (Array.mapi
       (fun lane seed ->
         ( seed,
           {
             g_results =
               List.map
                 (fun a ->
                   (a, Bvec.to_int (System64.read_ram_word sys lane a)))
                 b.Benchmark.result_addrs;
             g_cycles = halt_cycle.(lane);
             g_gpio_out = Option.get gpio_at_halt.(lane);
             toggles = Engine64.toggle_counts_lane eng lane;
             sim_cycles = halt_cycle.(lane);
           } ))
       seeds)

let run_gate_packed ?attach64 ?netlist ?(max_cycles = 3_000_000) ~core
    (b : Benchmark.t) ~seeds =
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let rec chunk acc = function
    | [] -> List.concat (List.rev acc)
    | rest ->
      let n = min (List.length rest) Engine64.max_lanes in
      let head = Array.of_list (List.filteri (fun i _ -> i < n) rest) in
      let tail = List.filteri (fun i _ -> i >= n) rest in
      chunk
        (run_packed_chunk ?attach64 ~netlist:net ~max_cycles ~core b head
         :: acc)
        tail
  in
  chunk [] seeds

(* The selector entry point.  [Packed] runs a one-lane Engine64
   simulation, so every engine answers the same single-seed question
   with bit-identical results. *)
let run_gate ?(engine = Compiled) ?attach ?attach64 ?netlist ?max_cycles ~core
    (b : Benchmark.t) ~seed =
  match engine with
  | Packed -> (
    match
      run_gate_packed ?attach64 ?netlist ?max_cycles ~core b ~seeds:[ seed ]
    with
    | [ (_, o) ] -> o
    | _ -> assert false)
  | e ->
    run_gate_scalar ~mode:(mode_of_engine e) ?attach ?netlist ?max_cycles ~core
      b ~seed

let co_simulate ?(engine = Compiled) ?netlist ?x_dont_care ~core
    (b : Benchmark.t) ~seed =
  Obs.Span.with_ ~name:"runner.co_simulate"
    ~args:[ ("benchmark", b.Benchmark.name); ("seed", string_of_int seed) ]
  @@ fun () ->
  let img = image ~core b in
  let ram_writes, gpio = b.Benchmark.gen_inputs seed in
  let irq_pulse_at =
    if b.Benchmark.uses_irq then b.Benchmark.irq_pulses seed else []
  in
  let netlist = match netlist with Some n -> n | None -> shared_netlist core in
  Lockstep.run_result ~mode:(mode_of_engine engine) ~netlist ~gpio_in:gpio
    ~ram_writes ~irq_pulse_at ?x_dont_care ~core img

let check_equivalence ?engine ?attach ?attach64 ?netlist ~core (b : Benchmark.t)
    ~seed =
  let iss = run_iss ~core b ~seed in
  let gate = run_gate ?engine ?attach ?attach64 ?netlist ~core b ~seed in
  List.iter2
    (fun (a, expect) (a', got) ->
      assert (a = a');
      match got with
      | Some v when v = expect -> ()
      | Some v ->
        raise
          (Mismatch
             (Printf.sprintf "%s seed %d: result[%04x] ISS %04x gate %04x"
                b.Benchmark.name seed a expect v))
      | None ->
        raise
          (Mismatch
             (Printf.sprintf "%s seed %d: result[%04x] unknown at gate level"
                b.Benchmark.name seed a)))
    iss.results gate.g_results;
  (match gate.g_gpio_out with
  | Some v when v = iss.gpio_out -> ()
  | _ ->
    raise
      (Mismatch (Printf.sprintf "%s seed %d: gpio mismatch" b.Benchmark.name seed)));
  (* gate-level includes the reset cycle(s) *)
  if gate.g_cycles <> iss.cycles + core.Coredef.reset_extra_cycles then
    raise
      (Mismatch
         (Printf.sprintf "%s seed %d: cycles ISS %d+%d vs gate %d"
            b.Benchmark.name seed iss.cycles core.Coredef.reset_extra_cycles
            gate.g_cycles));
  iss

let resolve_analysis_config ?config (b : Benchmark.t) =
  match config with
  | Some c -> { c with Activity.ram_x_ranges = b.Benchmark.input_ranges }
  | None ->
    {
      Activity.default_config with
      Activity.ram_x_ranges = b.Benchmark.input_ranges;
      irq_x = b.Benchmark.uses_irq;
    }

let analyze ?config ?(engine = Compiled) ?netlist ~core (b : Benchmark.t) =
  Obs.Span.with_ ~name:"runner.analyze"
    ~args:[ ("benchmark", b.Benchmark.name) ]
  @@ fun () ->
  (match engine with
  | Packed ->
    invalid_arg
      "Runner.analyze: packed is seed-parallel; use full or compiled"
  | _ -> ());
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let sys =
    System.create ~mode:(mode_of_engine engine) ~netlist:net ~core
      (image ~core b)
  in
  let config = resolve_analysis_config ?config b in
  (Activity.analyze ~config sys, net)

let analysis_cache : (Activity.report * Netlist.t) Flowcache.t =
  Flowcache.create ~name:"analysis" ()

let analyze_cached ?config ?engine ?netlist ~core (b : Benchmark.t) =
  let rc = resolve_analysis_config ?config b in
  if rc.Activity.probe <> None || rc.Activity.verbose then
    (* a probe observes every simulated cycle and verbose logs as it
       explores — a cache hit would silently skip both *)
    (analyze ~config:rc ?engine ?netlist ~core b, false)
  else begin
    let net = match netlist with Some n -> n | None -> shared_netlist core in
    let key =
      Flowcache.digest
        [
          "analysis";
          Coredef.fingerprint core;
          image_hash (image ~core b);
          netlist_hash ~core net;
          config_fingerprint rc;
        ]
    in
    (* the engine is not part of the key: all engines are bit-identical,
       so the report is engine-independent *)
    Flowcache.find_or_compute_report analysis_cache ~key (fun () ->
        analyze ~config:rc ?engine ~netlist:net ~core b)
  end
