(* The campaign engine: run a batch of (program, config) flow jobs as
   fast as the hardware allows.

   Jobs are sharded across the persistent Pool (one run queue shared by
   every domain); every job runs through the content-addressed
   Flowcache, so a campaign that touches the same (binary, netlist,
   config) triple twice — analyze + tailor + report + guard of one
   benchmark, or a warm rerun of a whole campaign — pays for the
   analysis and the cut once ({!Runner.tailor_cached}).  A job that
   raises yields an error record; the campaign always completes unless
   it is interrupted (Ctrl-C).

   Results stream as schema-versioned bespoke-campaign/v1 JSONL: one
   header line, one record per job (in completion order — the [job]
   field is the input index), one trailing summary line. *)

module B = Bespoke_programs.Benchmark
module Coredef = Bespoke_coreapi.Coredef
module Cores = Bespoke_cores.Cores
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Pool = Bespoke_core.Pool
module Flowcache = Bespoke_core.Flowcache
module Report = Bespoke_power.Report
module Verify = Bespoke_verify.Verify
module Guard = Bespoke_guard.Guard
module Mutation = Bespoke_mutation.Mutation
module Obs = Bespoke_obs.Obs

let m_jobs = Obs.Metrics.counter "campaign.jobs"
let m_failures = Obs.Metrics.counter "campaign.failures"

let now = Unix.gettimeofday

type kind = Analyze | Tailor | Report | Verify | Run | Guard

let kind_to_string = function
  | Analyze -> "analyze"
  | Tailor -> "tailor"
  | Report -> "report"
  | Verify -> "verify"
  | Run -> "run"
  | Guard -> "guard"

let kind_of_string = function
  | "analyze" -> Some Analyze
  | "tailor" -> Some Tailor
  | "report" -> Some Report
  | "verify" -> Some Verify
  | "run" -> Some Run
  | "guard" -> Some Guard
  | _ -> None

type program = Named of string | Inline of B.t

type job = {
  kind : kind;
  core : string;  (* registry name of the target core *)
  program : program;
  seed : int;
  faults : int;
  mutant : int;
}

let job ?(kind = Analyze) ?core ?(seed = 1) ?(faults = 3) ?(mutant = -1)
    program =
  let core =
    match core with
    | Some c -> c
    | None -> Cores.default.Cores.core.Coredef.name
  in
  { kind; core; program; seed; faults; mutant }

let program_name = function Named n -> n | Inline b -> b.B.name

(* Cores and benchmarks are resolved at execution time, inside the
   per-job exception fence — an unknown name becomes that job's error
   record, never a dead campaign.  Benchmark registries are per-core:
   the same name ("mult", ...) may resolve to a different port on each
   core. *)
let resolve_core name = Cores.find_exn name

let resolve_program (entry : Cores.entry) = function
  | Inline b -> b
  | Named name -> (
    match Cores.benchmark entry name with
    | Some b -> b
    | None ->
      failwith
        (Printf.sprintf "unknown benchmark %S on core %s (see `bespoke bench-list`)"
           name entry.Cores.core.Coredef.name))

(* ------------------------------------------------------------------ *)
(* Job execution.  Every kind goes through the campaign job cache —
   keyed by kind, binary image hash, netlist hash and the parameters
   that affect the result (seed/faults where they matter).  The payload
   is a list of (field, raw JSON value) pairs, ready to stream. *)

let jobs_cache : (string * string) list Flowcache.t =
  Flowcache.create ~name:"campaign.jobs" ()

let freq_hz = 1e8

module J = Obs.Json

let count_toggled a =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a

let analyze_payload (report : Activity.report) =
  [
    ("toggled_gates", J.int (count_toggled report.Activity.possibly_toggled));
    ("paths", J.int report.Activity.paths);
    ("total_cycles", J.int report.Activity.total_cycles);
  ]

let stats_payload (stats : Cut.stats) =
  [
    ("gates_original", J.int stats.Cut.original_gates);
    ("gates_cut", J.int stats.Cut.cut_gates);
    ("gates_bespoke", J.int stats.Cut.bespoke_gates);
    ("area_ratio", J.num (stats.Cut.bespoke_area /. stats.Cut.original_area));
  ]

(* The mutation catalog rewrites MSP430 assembly, so only that core
   has mutants; a guard replay (CLI or campaign job) resolves its
   workload here. *)
let mutants ~(core : Coredef.t) b =
  let msp430 = Cores.default.Cores.core.Coredef.name in
  if core.Coredef.name <> msp430 then
    Error
      (Printf.sprintf
         "guard mutants are not available on core %s (the mutation catalog \
          rewrites %s assembly)"
         core.Coredef.name msp430)
  else Ok (Mutation.mutants b)

let guard_workload ~core (b : B.t) = function
  | None -> Ok b
  | Some id ->
    Result.bind (mutants ~core b) @@ fun ms ->
    List.find_opt (fun m -> m.Mutation.id = id) ms
    |> Option.map (Mutation.to_benchmark b)
    |> Option.to_result
         ~none:
           (Printf.sprintf "no mutant %d of %s (%d mutant(s); see guard --list)"
              id b.B.name (List.length ms))

let exec_kind (j : job) ~(core : Coredef.t) (b : B.t) : (string * string) list =
  match j.kind with
  | Analyze ->
    let (report, _), _ = Runner.analyze_cached ~core b in
    analyze_payload report
  | Tailor -> stats_payload (Runner.tailor_cached ~core b).Runner.stats
  | Report ->
    let { Runner.bespoke; stats; _ } = Runner.tailor_cached ~core b in
    let o = Runner.run_gate ~netlist:bespoke ~core b ~seed:j.seed in
    let p =
      Report.power ~freq_hz ~toggles:o.Runner.toggles
        ~cycles:o.Runner.sim_cycles bespoke
    in
    stats_payload stats
    @ [
        ("area_um2", J.num p.Report.area_um2);
        ("total_nw", J.num p.Report.total_nw);
        ("cycles", J.int o.Runner.g_cycles);
      ]
  | Verify ->
    let c = Verify.check_benchmark ~faults:j.faults ~seed:j.seed ~core b in
    let score = Verify.kill_stats c in
    [
      ("equivalent", J.bool c.Verify.equivalent);
      ("faults_injected", J.int score.Verify.injected);
      ("faults_survived", J.int score.Verify.survived);
      ("kill_score_pct", J.num (Verify.kill_score_pct score));
    ]
  | Run ->
    let iss = Runner.check_equivalence ~core b ~seed:j.seed in
    [
      ("cycles", J.int iss.Runner.cycles);
      ("instructions", J.int iss.Runner.instructions);
      ("equivalent", J.bool true);
    ]
  | Guard ->
    (* deployment-guard replay: the bespoke design tailored to [b],
       watched by the shadow cut-assumption monitors, running either
       [b] itself (mutant < 0) or one of its single-instruction
       mutants — the in-field-update risk as a campaign job *)
    let t = Runner.tailor_cached ~core b in
    let plan = Guard.plan_of_tailored t in
    let bespoke = t.Runner.bespoke in
    let mutant = if j.mutant < 0 then None else Some j.mutant in
    let workload = Result.fold ~ok:Fun.id ~error:failwith (guard_workload ~core b mutant) in
    let w = Guard.watch_bespoke plan in
    let rp = Guard.replay w ~core ~netlist:bespoke workload ~seed:j.seed in
    [
      ("workload", J.str workload.B.name);
      ("assumptions", J.int (List.length plan.Guard.p_assumptions));
      ("monitors", J.int (List.length plan.Guard.p_monitors));
      ("implied", J.int plan.Guard.p_implied);
      ("unmonitorable", J.int plan.Guard.p_unmonitorable);
      ("halted", J.bool (Result.is_ok rp.Guard.rp_result));
      ("cycles_checked", J.int (Guard.cycles_checked w));
      ("violations", J.int (Guard.total_violations w));
      ( "violating_gates",
        J.int (List.length (Guard.violations w)) );
      ("clean", J.bool (Guard.clean w));
    ]

(* The part of a benchmark's input content the image hash cannot see:
   the analysis X-ranges, and for concrete runs the generated RAM
   writes, GPIO value and IRQ schedule at the job's seed.  Without
   this, two benchmarks sharing a binary but differing in inputs would
   alias in the cache.  The concrete part is {!Runner.stimulus}, the
   one the runs themselves drive.  Generation runs inside the per-job
   fence, so a benchmark whose input generator raises becomes an
   error record before it ever touches the cache. *)
let inputs_fingerprint (j : job) (b : B.t) =
  let ranges =
    String.concat ","
      (List.map (fun (a, z) -> Printf.sprintf "%x-%x" a z) b.B.input_ranges)
  in
  match j.kind with
  | Analyze | Tailor -> Printf.sprintf "ranges=%s;irq=%b" ranges b.B.uses_irq
  | Report | Run | Verify | Guard ->
    let st = Runner.stimulus b ~seed:j.seed in
    let buf = Buffer.create 64 in
    List.iter
      (fun (a, v) -> Buffer.add_string buf (Printf.sprintf "%x:%x;" a v))
      st.Runner.ram_writes;
    Printf.sprintf "ranges=%s;inputs=%s;gpio=%x;irqs=%s" ranges
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
      st.Runner.gpio
      (String.concat "," (List.map string_of_int st.Runner.pulses))

let exec_job (j : job) : (string * string) list * bool =
  let entry = resolve_core j.core in
  let core = entry.Cores.core in
  let b = resolve_program entry j.program in
  let params =
    match j.kind with
    | Analyze | Tailor -> ""
    | Report | Run -> Printf.sprintf "seed=%d" j.seed
    | Verify -> Printf.sprintf "seed=%d;faults=%d" j.seed j.faults
    | Guard -> Printf.sprintf "seed=%d;mutant=%d" j.seed j.mutant
  in
  let key =
    Flowcache.digest
      [
        "campaign";
        kind_to_string j.kind;
        Coredef.fingerprint core;
        Runner.image_hash (Runner.image ~core b);
        Runner.shared_netlist_hash core;
        inputs_fingerprint j b;
        params;
      ]
  in
  Flowcache.find_or_compute_report jobs_cache ~key (fun () ->
      exec_kind j ~core b)

(* ------------------------------------------------------------------ *)

type outcome = {
  o_job : job;
  o_index : int;
  status : ((string * string) list, string) result;
  time_s : float;
  cached : bool;
}

type summary = {
  total : int;
  ok : int;
  failed : int;
  cache_hits : int;
  wall_s : float;
  jobs_used : int;
}

(* ---- live progress ---- *)

type event = Job_started of int * job | Job_finished of outcome

type progress = {
  p_done : int;
  p_ok : int;
  p_failed : int;
  p_cached : int;
  p_running : int;
  p_total : int;
  p_elapsed_s : float;
}

let jobs_per_sec p =
  if p.p_elapsed_s > 0.0 && p.p_done > 0 then
    float_of_int p.p_done /. p.p_elapsed_s
  else 0.0

let eta_s p =
  let r = jobs_per_sec p in
  if r > 0.0 then Some (float_of_int (p.p_total - p.p_done) /. r) else None

let cache_hit_rate p =
  if p.p_done > 0 then float_of_int p.p_cached /. float_of_int p.p_done
  else 0.0

let progress_line p =
  Printf.sprintf
    "campaign: %d/%d done, %d running, %d failed, %.1f jobs/s, cache %.0f%%, \
     ETA %s"
    p.p_done p.p_total p.p_running p.p_failed (jobs_per_sec p)
    (100.0 *. cache_hit_rate p)
    (match eta_s p with Some e -> Printf.sprintf "%.0fs" e | None -> "?")

let run ?jobs ?on_event (js : job list) =
  (* the campaign is CPU-bound, so even an explicit request is capped
     at the hardware's concurrency *)
  let jobs_n =
    match jobs with
    | Some j -> Pool.clamp_jobs j
    | None -> Pool.default_jobs ()
  in
  Obs.Span.with_ ~name:"campaign.run"
    ~args:
      [
        ("jobs", string_of_int jobs_n);
        ("tasks", string_of_int (List.length js));
      ]
  @@ fun () ->
  let t0 = now () in
  (* One lock serializes progress-state updates and the callback, so
     a stream writer in the callback sees events in a consistent order
     with monotonically advancing progress counts. *)
  let cb_lock = Mutex.create () in
  let st =
    ref
      {
        p_done = 0;
        p_ok = 0;
        p_failed = 0;
        p_cached = 0;
        p_running = 0;
        p_total = List.length js;
        p_elapsed_s = 0.0;
      }
  in
  let notify update ev =
    Option.iter
      (fun f ->
        Mutex.protect cb_lock (fun () ->
            st := { (update !st) with p_elapsed_s = now () -. t0 };
            try f ev !st
            with e ->
              Printf.eprintf "warning: campaign on_event raised: %s\n%!"
                (Printexc.to_string e)))
      on_event
  in
  let started i j =
    notify (fun p -> { p with p_running = p.p_running + 1 }) (Job_started (i, j))
  in
  let emit o =
    let ok = Result.is_ok o.status in
    notify
      (fun p ->
        {
          p with
          p_done = p.p_done + 1;
          p_ok = (p.p_ok + if ok then 1 else 0);
          p_failed = (p.p_failed + if ok then 0 else 1);
          p_cached = (p.p_cached + if o.cached then 1 else 0);
          p_running = max 0 (p.p_running - 1);
        })
      (Job_finished o)
  in
  (* A Ctrl-C (Sys.Break) is the user killing the campaign, not a job
     failure: it escapes the job fence, and Pool.map drops the jobs not
     yet started and re-raises it, so the CLI flushes partial telemetry
     on the way out. *)
  let outcomes =
    Pool.map ~jobs:jobs_n
      (fun (i, j) ->
        Obs.Metrics.incr m_jobs;
        started i j;
        let t = now () in
        let status, cached =
          match exec_job j with
          | payload, hit -> (Ok payload, hit)
          | exception Sys.Break -> raise Sys.Break
          | exception e ->
            Obs.Metrics.incr m_failures;
            let m = match e with Failure m -> m | e -> Printexc.to_string e in
            (Error m, false)
        in
        let o =
          { o_job = j; o_index = i; status; time_s = now () -. t; cached }
        in
        emit o;
        o)
      (List.mapi (fun i j -> (i, j)) js)
  in
  let ok = List.length (List.filter (fun o -> Result.is_ok o.status) outcomes) in
  let hits = List.length (List.filter (fun o -> o.cached) outcomes) in
  let summary =
    {
      total = List.length outcomes;
      ok;
      failed = List.length outcomes - ok;
      cache_hits = hits;
      wall_s = now () -. t0;
      jobs_used = jobs_n;
    }
  in
  (outcomes, summary)

(* ------------------------------------------------------------------ *)
(* Job-list parsing: one job per line, `KIND BENCH [core=NAME] [seed=N]
   [faults=N] [mutant=N]`; blank lines and #-comments are skipped.  A
   malformed line is a campaign-level error (the file is wrong, not a
   job); an unknown core or benchmark NAME is a job-level error,
   surfaced when the job runs. *)

let parse_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))
  in
  match words with
  | [] -> Ok None
  | kind_s :: bench :: opts -> (
    match kind_of_string kind_s with
    | None -> Error (Printf.sprintf "unknown job kind %S" kind_s)
    | Some kind -> (
      let j = ref (job ~kind (Named bench)) in
      let bad = ref None in
      List.iter
        (fun opt ->
          match String.split_on_char '=' opt with
          | [ "core"; v ] -> j := { !j with core = v }
          | [ "seed"; v ] -> (
            match int_of_string_opt v with
            | Some s -> j := { !j with seed = s }
            | None -> bad := Some (Printf.sprintf "bad seed %S" v))
          | [ "faults"; v ] -> (
            match int_of_string_opt v with
            | Some f -> j := { !j with faults = f }
            | None -> bad := Some (Printf.sprintf "bad faults %S" v))
          | [ "mutant"; v ] -> (
            match int_of_string_opt v with
            | Some m -> j := { !j with mutant = m }
            | None -> bad := Some (Printf.sprintf "bad mutant %S" v))
          | _ -> bad := Some (Printf.sprintf "unknown option %S" opt))
        opts;
      match !bad with Some m -> Error m | None -> Ok (Some !j)))
  | [ k ] -> Error (Printf.sprintf "job %S is missing a benchmark name" k)

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | line -> (
      match parse_line line with
      | Ok None -> go (lineno + 1) acc
      | Ok (Some j) -> go (lineno + 1) (j :: acc)
      | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m))
  in
  go 1 []

(* ---- the bespoke-campaign/v1 JSONL stream ---- *)

let schema = "bespoke-campaign/v1"

let header_jsonl ~jobs ~cores ~total =
  J.obj
    [
      ("schema", J.str schema);
      ("total_jobs", J.int total);
      ("jobs", J.int jobs);
      ("cores", J.arr (List.map J.str cores));
    ]

let outcome_jsonl (o : outcome) =
  let common =
    [
      ("job", J.int o.o_index);
      ("kind", J.str (kind_to_string o.o_job.kind));
      ("core", J.str o.o_job.core);
      ("bench", J.str (program_name o.o_job.program));
      ("seed", J.int o.o_job.seed);
      ("faults", J.int o.o_job.faults);
      ("mutant", J.int o.o_job.mutant);
      ("cached", J.bool o.cached);
      ("time_s", J.num o.time_s);
    ]
  in
  match o.status with
  | Ok payload ->
    J.obj (common @ [ ("status", J.str "ok"); ("payload", J.obj payload) ])
  | Error m -> J.obj (common @ [ ("status", J.str "error"); ("error", J.str m) ])

(* Heartbeats interleave with outcome records in the stream; readers
   distinguish them by the ["heartbeat"] field (outcome records have
   ["job"], the trailer has ["summary"]). *)
let heartbeat_jsonl ~seq (p : progress) =
  J.obj
    ([
       ("heartbeat", J.bool true);
       ("seq", J.int seq);
       ("done", J.int p.p_done);
       ("ok", J.int p.p_ok);
       ("failed", J.int p.p_failed);
       ("cached", J.int p.p_cached);
       ("running", J.int p.p_running);
       ("total", J.int p.p_total);
       ("elapsed_s", J.num p.p_elapsed_s);
       ("jobs_per_sec", J.num (jobs_per_sec p));
       ("cache_hit_rate", J.num (cache_hit_rate p));
     ]
    @ match eta_s p with Some e -> [ ("eta_s", J.num e) ] | None -> [])

let summary_jsonl (s : summary) =
  J.obj
    [
      ("summary", J.bool true);
      ("total", J.int s.total);
      ("ok", J.int s.ok);
      ("failed", J.int s.failed);
      ("cache_hits", J.int s.cache_hits);
      ("wall_s", J.num s.wall_s);
      ("jobs", J.int s.jobs_used);
    ]
