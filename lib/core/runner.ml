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
module Provenance = Bespoke_report.Provenance

let m_gate_runs = Obs.Metrics.counter "runner.gate_runs"

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
(* Per-core memoization.  One stock netlist per core descriptor, keyed
   by core name; one assembled image per (core, source digest), so
   re-assembly of mutant sources never collides with the pristine
   benchmark.  Pool tasks look both up, so one mutex guards the two
   tables, and a value is built under it: every caller, on any domain,
   gets the same physical netlist or image. *)

let memo_mu = Mutex.create ()
let netlist_table : (string, Netlist.t) Hashtbl.t = Hashtbl.create 4
let image_table : (string, Coredef.image) Hashtbl.t = Hashtbl.create 64

let memo table key build =
  Mutex.protect memo_mu (fun () ->
      match Hashtbl.find_opt table key with
      | Some v -> v
      | None ->
        let v = build () in
        Hashtbl.replace table key v;
        v)

let shared_netlist (core : Coredef.t) =
  memo netlist_table core.Coredef.name core.Coredef.build

let shared_netlist_hash core = Serial.hash (shared_netlist core)

let image ~core (b : Benchmark.t) =
  memo image_table
    (core.Coredef.name ^ "/" ^ Digest.to_hex (Digest.string b.Benchmark.source))
    (fun () -> core.Coredef.assemble b.Benchmark.source)

(* ------------------------------------------------------------------ *)
(* Content-addressed keys for the flow cache: a binary-image hash, a
   netlist hash and a config fingerprint covering every field that can
   change the analysis result.  The core fingerprint is a separate key
   component wherever these are combined. *)

let image_hash = Coredef.image_hash

let config_fingerprint (c : Activity.config) =
  let ranges =
    String.concat ","
      (List.map
         (fun (a, b) -> Printf.sprintf "%x-%x" a b)
         c.Activity.ram_x_ranges)
  in
  Printf.sprintf "irq_x=%b;ram=%s;cycles=%d;paths=%d" c.Activity.irq_x ranges
    c.Activity.max_total_cycles c.Activity.max_paths

(* ------------------------------------------------------------------ *)
(* The stimulus of one benchmark input.  Every concrete run of a
   (benchmark, seed) pair — ISS, gate level, packed lanes, lockstep
   co-simulation — and the campaign's input fingerprint take it from
   here, so they all drive the same RAM words, GPIO value and IRQ
   schedule. *)

type stimulus = { ram_writes : (int * int) list; gpio : int; pulses : int list }

let stimulus (b : Benchmark.t) ~seed =
  let ram_writes, gpio = b.Benchmark.gen_inputs seed in
  let pulses = if b.Benchmark.uses_irq then b.Benchmark.irq_pulses seed else [] in
  { ram_writes; gpio; pulses }

let irq_line st ~retired = List.mem retired st.pulses

(* The gate level's retired-instruction clock.  A gate-level run sees
   instruction boundaries, not retirements: the count advances at
   every boundary that follows a completed instruction — not at the
   first fetch, and not at the boundary after an IRQ-entry sequence
   (which retires nothing).  Call the returned function at each
   boundary, with [preempted] when that fetch gives way to an IRQ
   entry; it returns the IRQ line for the cycle that starts there,
   which is what the ISS sees before the same step. *)
let irq_clock st =
  let retired = ref 0 and first = ref true and after_entry = ref false in
  fun ~preempted ->
    if !first then first := false else if not !after_entry then incr retired;
    after_entry := preempted;
    Bit.of_bool (irq_line st ~retired:!retired)

let loaded_iss ~core (b : Benchmark.t) ~seed =
  let st = stimulus b ~seed in
  let t = (image ~core b).Coredef.mk_iss () in
  t.Coredef.reset ();
  List.iter (fun (a, v) -> t.Coredef.write_ram_word a v) st.ram_writes;
  t.Coredef.set_gpio_in st.gpio;
  (t, fun () -> t.Coredef.set_irq_line (irq_line st ~retired:(t.Coredef.retired ())))

let run_iss ~core (b : Benchmark.t) ~seed =
  let t, set_irq = loaded_iss ~core b ~seed in
  let limit = 2_000_000 in
  let n = ref 0 in
  while (not (t.Coredef.halted ())) && !n < limit do
    set_irq ();
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

let run_gate ?engine ?attach ?netlist ?(max_cycles = 3_000_000) ~core
    (b : Benchmark.t) ~seed =
  Obs.Span.with_ ~name:"runner.run_gate"
    ~args:[ ("benchmark", b.Benchmark.name); ("seed", string_of_int seed) ]
  @@ fun () ->
  Obs.Metrics.incr m_gate_runs;
  let img = image ~core b in
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let sys = System.create ?engine ~netlist:net ~core img in
  System.reset sys;
  let st = stimulus b ~seed in
  List.iter (fun (a, v) -> System.load_ram_word sys a v) st.ram_writes;
  System.set_gpio_in_int sys st.gpio;
  System.set_irq sys Bit.Zero;
  (match attach with None -> () | Some f -> f (System.engine sys));
  let irq_at = irq_clock st in
  while (not (System.halted sys)) && System.cycles sys < max_cycles do
    if System.insn_boundary_code sys = 1 then
      System.set_irq sys
        (irq_at ~preempted:(Bit.equal (System.fetching sys) Bit.Zero));
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
   advancing through the same global cycle loop.  Each lane runs its
   own IRQ clock; halt detection and deadline mirror [run_gate] exactly,
   and lanes leave the active set when (and only when) the scalar loop
   would have exited, so every lane's toggle counts are bit-identical
   to its scalar run. *)
let run_packed_chunk ~netlist ~max_cycles ~core (b : Benchmark.t)
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
  System64.reset sys;
  let stims = Array.map (fun seed -> stimulus b ~seed) seeds in
  Array.iteri
    (fun lane st ->
      List.iter (fun (a, v) -> System64.load_ram_word sys lane a v) st.ram_writes;
      System64.set_gpio_in_lane_int sys lane st.gpio)
    stims;
  System64.set_irq_lanes sys (Array.make lanes Bit.Zero);
  let clocks = Array.map irq_clock stims in
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
      if
        !active land (1 lsl lane) <> 0
        && Bit.equal (System64.insn_boundary_lane sys lane) Bit.One
      then
        irq_next.(lane) <-
          clocks.(lane)
            ~preempted:(Bit.equal (System64.fetching_lane sys lane) Bit.Zero)
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

let run_gate_packed ?netlist ?(max_cycles = 3_000_000) ~core
    (b : Benchmark.t) ~seeds =
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let rec chunk acc = function
    | [] -> List.concat (List.rev acc)
    | rest ->
      let n = min (List.length rest) Engine64.max_lanes in
      let head = Array.of_list (List.filteri (fun i _ -> i < n) rest) in
      let tail = List.filteri (fun i _ -> i >= n) rest in
      chunk
        (run_packed_chunk ~netlist:net ~max_cycles ~core b head
         :: acc)
        tail
  in
  chunk [] seeds

let co_simulate ?netlist ?x_dont_care ~core
    (b : Benchmark.t) ~seed =
  Obs.Span.with_ ~name:"runner.co_simulate"
    ~args:[ ("benchmark", b.Benchmark.name); ("seed", string_of_int seed) ]
  @@ fun () ->
  let st = stimulus b ~seed in
  let netlist = match netlist with Some n -> n | None -> shared_netlist core in
  Lockstep.run_result ~netlist ~gpio_in:st.gpio ~ram_writes:st.ram_writes
    ~irq_pulse_at:st.pulses ?x_dont_care ~core (image ~core b)

let check_equivalence ?attach ?netlist ~core (b : Benchmark.t) ~seed =
  let iss = run_iss ~core b ~seed in
  let gate = run_gate ?attach ?netlist ~core b ~seed in
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

let analyze ?config ?netlist ~core (b : Benchmark.t) =
  Obs.Span.with_ ~name:"runner.analyze"
    ~args:[ ("benchmark", b.Benchmark.name) ]
  @@ fun () ->
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  let sys = System.create ~netlist:net ~core (image ~core b) in
  let config = resolve_analysis_config ?config b in
  (Activity.analyze ~config sys, net)

let analysis_cache : (Activity.report * Netlist.t) Flowcache.t =
  Flowcache.create ~name:"analysis" ()

let analysis_key ~core ~net rc (b : Benchmark.t) =
  Flowcache.digest
    [
      "analysis";
      Coredef.fingerprint core;
      image_hash (image ~core b);
      Serial.hash net;
      config_fingerprint rc;
    ]

let analyze_cached ?config ?netlist ~core (b : Benchmark.t) =
  let rc = resolve_analysis_config ?config b in
  let net = match netlist with Some n -> n | None -> shared_netlist core in
  Flowcache.find_or_compute_report analysis_cache
    ~key:(analysis_key ~core ~net rc b)
    (fun () -> analyze ~config:rc ~netlist:net ~core b)

type tailored = {
  report : Activity.report;
  original : Netlist.t;
  bespoke : Netlist.t;
  stats : Cut.stats;
  prov : Provenance.t;
}

(* The one tailoring of a benchmark every stage downstream of the cut
   consumes (report, verify, guard, export), keyed like the default
   analysis it starts from.  Those stages run back to back — a
   campaign lists a benchmark's jobs together, a command tailors one
   benchmark — so the cache keeps only the last two tailorings, one
   per domain of a two-domain campaign.  A tailoring with its
   provenance is ~0.5 MiB live but ~2 MiB of peak heap: kept for every
   benchmark, it grew the flow benchmark's peak RSS by a quarter. *)
let tailor_cache : tailored Flowcache.t =
  Flowcache.create ~capacity:2 ~name:"tailor" ()

let tailor_cached ~core (b : Benchmark.t) =
  let key =
    Flowcache.digest
      [
        "tailor";
        analysis_key ~core ~net:(shared_netlist core)
          (resolve_analysis_config b) b;
      ]
  in
  Flowcache.find_or_compute tailor_cache ~key (fun () ->
      let (report, original), _ = analyze_cached ~core b in
      let bespoke, stats, prov =
        Cut.tailor_explained original
          ~possibly_toggled:report.Activity.possibly_toggled
          ~constants:report.Activity.constant_values
      in
      { report; original; bespoke; stats; prov })
