(* One validator for every artifact the flow emits, behind the
   @*-smoke aliases:

     schema_check KIND FILE [ARG...]

   KIND          FILE                                ARGs
   report        bespoke-report/v1 JSON              -
   verify        bespoke-verify/v1 JSON              the core it must name
   campaign      bespoke-campaign/v1 JSONL           record classes that must
                                                     appear: error, heartbeat
   guard         bespoke-guard/v1 JSONL              the core, then clean or
                                                     violated
   trace         Chrome-trace JSONL                  span names that must appear
   metrics       metrics snapshot JSON, or a         metric-name prefixes that
                 bespoke-metrics/v1 JSONL series     must appear
   stats-output  rendered `bespoke_cli stats` text   substrings that must appear

   Each kind checks the artifact's schema tag and shape plus the
   arithmetic its fields promise (docs/SCHEMAS.md).  Exits non-zero
   with "KIND FILE: message" on the first violation. *)

module J = Bespoke_obs.Obs.Json

let where = ref "schema-check"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (!where ^ ": " ^ m);
      exit 1)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_lines path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match J.parse line with
        | Ok j -> Some j
        | Error m -> fail "line does not parse: %s (%s)" m line)
    (String.split_on_char '\n' (read_file path))

let parse_file path =
  match J.parse (read_file path) with Ok j -> j | Error m -> fail "does not parse: %s" m

let get what acc k j =
  match acc k j with Some v -> v | None -> fail "field %S missing or not %s" k what

let mem k j = get "present" J.member k j
let str = get "a string" J.mem_str
let num = get "a number" J.mem_num
let int k j = int_of_float (num k j)
let bool = get "a bool" J.mem_bool
let arr = get "an array" J.mem_arr
let fields = get "an object" J.mem_obj

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let schema_is tag j =
  if str "schema" j <> tag then fail "unexpected schema tag %S" (str "schema" j)

let pct name what v =
  if v < 0.0 || v > 100.0 then fail "%s: %s %g outside [0, 100]" name what v

(* ---- bespoke-report/v1 ---- *)

let close a b = Float.abs (a -. b) <= 0.05 +. (1e-4 *. Float.abs b)

let check_savings name what j =
  let original = num "original" j and bespoke = num "bespoke" j in
  if original <= 0.0 then fail "%s: %s.original is not positive" name what;
  if bespoke < 0.0 || bespoke > original then
    fail "%s: %s.bespoke %g outside [0, original %g]" name what bespoke original;
  let expect = 100.0 *. (1.0 -. (bespoke /. original)) in
  let got = num "saved_pct" j in
  if not (close got expect) then
    fail "%s: %s.saved_pct %g does not match original/bespoke (%g)" name what got
      expect;
  (original, bespoke)

let check_report_bench b =
  let name = str "name" b in
  let gates = mem "gates" b in
  let go, gb = check_savings name "gates" gates in
  let cut = num "cut" gates in
  if cut < 0.0 || cut > go then fail "%s: gates.cut %g out of range" name cut;
  let ao, _ = check_savings name "area_um2" (mem "area_um2" b) in
  ignore (check_savings name "leakage_nw" (mem "leakage_nw" b));
  let timing = mem "timing" b in
  if num "critical_ps_bespoke" timing > num "critical_ps_original" timing then
    fail "%s: bespoke critical path longer than the original" name;
  if num "vmin_v" timing <= 0.0 then fail "%s: non-positive Vmin" name;
  if num "cycles" (mem "analysis" b) <= 0.0 then
    fail "%s: analysis simulated no cycles" name;
  (* the cut-reason histogram partitions the original real gates *)
  let reasons = fields "cut_reasons" b in
  let count k = Option.value ~default:0.0 (J.mem_num k (J.Obj reasons)) in
  let total =
    List.fold_left
      (fun acc (_, v) -> match v with J.Num n -> acc +. n | _ -> acc)
      0.0 reasons
  in
  if total <> go then fail "%s: cut reasons sum to %g, design has %g gates" name total go;
  if count "kept" +. count "downsized" <> gb then
    fail "%s: kept + downsized does not equal the bespoke gate count" name;
  if count "never-toggled" <> cut then
    fail "%s: never-toggled %g does not match gates.cut %g" name
      (count "never-toggled") cut;
  (* the (total) attribution row agrees with the top-level numbers *)
  match List.find_opt (fun m -> str "module" m = "(total)") (arr "modules" b) with
  | None -> fail "%s: no (total) attribution row" name
  | Some t ->
    if num "gates_original" t <> go then
      fail "%s: attribution total gates %g != %g" name (num "gates_original" t) go;
    if num "gates_bespoke" t <> gb then
      fail "%s: attribution bespoke gates %g != %g" name (num "gates_bespoke" t) gb;
    if not (close (num "area_original_um2" t) ao) then
      fail "%s: attribution total area %g != %g" name (num "area_original_um2" t) ao

let report path = function
  | [] ->
    let j = parse_file path in
    schema_is "bespoke-report/v1" j;
    ignore (str "generator" j);
    let benches = arr "benchmarks" j in
    if benches = [] then fail "artifact lists no benchmarks";
    List.iter check_report_bench benches;
    Printf.sprintf "%d benchmark(s) validated" (List.length benches)
  | _ -> fail "report takes no arguments"

(* ---- bespoke-verify/v1 ---- *)

let check_fault name f =
  let kill = str "kill" f in
  (match kill with
  | "input" ->
    (* an input kill must come with a shrunk, replayable repro *)
    let r = mem "repro" f in
    if arr "seeds" r = [] then fail "%s: input-killed fault with empty repro" name;
    ignore (str "what" r);
    ignore (num "at_insn" r)
  | "symbolic" -> ignore (str "detail" f)
  | "survived" -> ()
  | k -> fail "%s: unknown kill class %S" name k);
  (kill, bool "detectable" f)

let check_verify_bench ~core b =
  let name = str "name" b in
  if str "core" b <> core then
    fail "%s: benchmark core %S, header says %S" name (str "core" b) core;
  let gates = mem "gates" b in
  let go = num "original" gates and gb = num "bespoke" gates in
  if go <= 0.0 then fail "%s: no original gates" name;
  if gb <= 0.0 || gb > go then
    fail "%s: bespoke gate count %g outside (0, original %g]" name gb go;
  if str "verdict" b <> "equivalent" then fail "%s: not equivalent" name;
  if not (bool "equivalent" (mem "symbolic" b)) then
    fail "%s: symbolic layer disagrees with the verdict" name;
  if num "paths" (mem "symbolic" b) < 1.0 then fail "%s: no symbolic paths" name;
  let inputs = mem "inputs" b in
  let n = num "count" inputs in
  if n < 1.0 then fail "%s: no co-simulated inputs" name;
  if float_of_int (List.length (arr "seeds" inputs)) <> n then
    fail "%s: inputs.count disagrees with inputs.seeds" name;
  if not (bool "all_ok" inputs) then fail "%s: an input run diverged" name;
  List.iter
    (fun k -> pct name k (num k inputs))
    [ "line_pct"; "branch_pct"; "branch_dir_pct"; "gate_pct" ];
  if num "gate_pct" inputs <= 0.0 then fail "%s: no gate toggled" name;
  let fi = mem "fault_injection" b in
  let injected = num "injected" fi in
  let ki = num "killed_input" fi
  and ks = num "killed_symbolic" fi
  and sv = num "survived" fi in
  if ki +. ks +. sv <> injected then
    fail "%s: kill classes sum to %g, %g injected" name (ki +. ks +. sv) injected;
  let faults = arr "faults" fi in
  if float_of_int (List.length faults) <> injected then
    fail "%s: faults array length disagrees with injected" name;
  let kills = List.map (check_fault name) faults in
  let count p = float_of_int (List.length (List.filter p kills)) in
  if count (fun (k, _) -> k = "input") <> ki then
    fail "%s: killed_input disagrees with the fault list" name;
  if count (fun (k, _) -> k = "symbolic") <> ks then
    fail "%s: killed_symbolic disagrees with the fault list" name;
  if count (fun (_, d) -> d) <> num "detectable" fi then
    fail "%s: detectable count disagrees with the fault list" name;
  if count (fun (k, d) -> d && k <> "survived") <> num "detectable_killed" fi then
    fail "%s: detectable_killed disagrees with the fault list" name;
  if injected > 0.0 && num "detectable" fi < 1.0 then
    fail "%s: campaign drew no detectable fault" name;
  (* the acceptance bar: every detectable fault killed *)
  if num "detectable_score_pct" fi <> 100.0 then
    fail "%s: detectable kill score %g, want 100" name (num "detectable_score_pct" fi)

let verify path = function
  | [ core ] ->
    let j = parse_file path in
    schema_is "bespoke-verify/v1" j;
    ignore (str "generator" j);
    if str "core" j <> core then fail "header core %S, want %S" (str "core" j) core;
    let benches = arr "benchmarks" j in
    if benches = [] then fail "lists no benchmarks";
    List.iter (check_verify_bench ~core) benches;
    Printf.sprintf "%d benchmark campaign(s) validated on core %s"
      (List.length benches) core
  | _ -> fail "verify takes the expected CORE"

(* ---- bespoke-campaign/v1 ---- *)

let kinds = [ "analyze"; "tailor"; "report"; "verify"; "run"; "guard" ]

(* records stream in completion order, so the job index is not the
   record position — each index must simply appear exactly once *)
let check_job total i j =
  let idx = int "job" j in
  if idx < 0 || idx >= total then
    fail "record %d carries job index %d outside [0, %d)" i idx total;
  if not (List.mem (str "kind" j) kinds) then
    fail "record %d: unknown kind %S" i (str "kind" j);
  if str "bench" j = "" then fail "record %d: empty bench name" i;
  if num "time_s" j < 0.0 then fail "record %d: negative time_s" i;
  ignore (bool "cached" j);
  match str "status" j with
  | "ok" ->
    (match mem "payload" j with
    | J.Obj [] -> fail "record %d: ok with an empty payload" i
    | J.Obj _ -> ()
    | _ -> fail "record %d: payload is not an object" i);
    (idx, `Ok)
  | "error" ->
    if str "error" j = "" then fail "record %d: error record with no message" i;
    (idx, `Error)
  | s -> fail "record %d: status %S is neither ok nor error" i s

(* heartbeats (from --progress): strictly increasing seq, sane rates,
   and the last one reports the whole campaign done *)
let check_heartbeats ~total hs =
  ignore
    (List.fold_left
       (fun prev_seq h ->
         let seq = int "seq" h in
         if seq <= prev_seq then
           fail "heartbeat seq %d not increasing (previous %d)" seq prev_seq;
         if num "done" h > num "total" h || int "done" h > total then
           fail "heartbeat done %g exceeds total %d" (num "done" h) total;
         if num "jobs_per_sec" h < 0.0 then fail "heartbeat jobs_per_sec < 0";
         let rate = num "cache_hit_rate" h in
         if rate < 0.0 || rate > 1.0 then
           fail "heartbeat cache_hit_rate %g outside [0,1]" rate;
         seq)
       (-1) hs);
  match List.rev hs with
  | last :: _ when int "done" last <> total ->
    fail "final heartbeat done %d <> total %d" (int "done" last) total
  | _ -> ()

let campaign path wants =
  let heartbeats, parsed =
    List.partition (fun j -> J.mem_bool "heartbeat" j = Some true) (parse_lines path)
  in
  match parsed with
  | [] | [ _ ] | [ _; _ ] -> fail "stream too short: want header, jobs, summary"
  | header :: rest ->
    schema_is "bespoke-campaign/v1" header;
    let total = int "total_jobs" header in
    if num "jobs" header < 1.0 then fail "header jobs < 1";
    let records, summary =
      match List.rev rest with
      | s :: r -> (List.rev r, s)
      | [] -> fail "no summary line"
    in
    if List.length records <> total then
      fail "header promises %d jobs, stream carries %d records" total
        (List.length records);
    let checked = List.mapi (check_job total) records in
    if List.sort compare (List.map fst checked) <> List.init total Fun.id then
      fail "job indices are not a permutation of 0..%d" (total - 1);
    let count s = List.length (List.filter (fun (_, s') -> s' = s) checked) in
    if count `Ok < 1 then fail "no job succeeded";
    if not (bool "summary" summary) then fail "last line is not the summary";
    if int "total" summary <> total then
      fail "summary total %g disagrees with header %d" (num "total" summary) total;
    if int "ok" summary <> count `Ok then
      fail "summary ok %g disagrees with the stream (%d)" (num "ok" summary) (count `Ok);
    if int "failed" summary <> count `Error then
      fail "summary failed %g disagrees with the stream (%d)" (num "failed" summary)
        (count `Error);
    if num "ok" summary +. num "failed" summary <> num "total" summary then
      fail "summary ok + failed <> total";
    if num "wall_s" summary < 0.0 then fail "summary wall_s negative";
    check_heartbeats ~total heartbeats;
    List.iter
      (function
        | "error" ->
          if count `Error < 1 then
            fail
              "no error record: the job list includes a failing job, crash \
               isolation must surface it"
        | "heartbeat" ->
          if heartbeats = [] then fail "no heartbeat records despite --progress"
        | w -> fail "campaign: unknown requirement %S" w)
      wants;
    Printf.sprintf "%d record(s) validated (%d ok, %d error, %d heartbeat(s))" total
      (count `Ok) (count `Error) (List.length heartbeats)

(* ---- bespoke-guard/v1 ---- *)

let guard path = function
  | [ core; expect ] -> (
    match parse_lines path with
    | [] | [ _ ] -> fail "stream too short: want header and summary"
    | header :: rest ->
      schema_is "bespoke-guard/v1" header;
      if str "core" header <> core then
        fail "header core %S, want %S" (str "core" header) core;
      if str "design" header = "" then fail "empty design name";
      if str "workload" header = "" then fail "empty workload name";
      let mode = str "mode" header in
      if not (List.mem mode [ "hw"; "shadow"; "original" ]) then
        fail "unknown mode %S" mode;
      let assumptions = int "assumptions" header
      and monitors = int "monitors" header
      and implied = int "implied" header
      and unmonitorable = int "unmonitorable" header in
      if monitors < 1 then fail "no monitors in the plan";
      if monitors + implied + unmonitorable <> assumptions then
        fail "coverage split %d + %d + %d <> %d assumption(s)" monitors implied
          unmonitorable assumptions;
      let violations, summary =
        match List.rev rest with
        | s :: r -> (List.rev r, s)
        | [] -> fail "no summary line"
      in
      if not (bool "summary" summary) then fail "last line is not the summary";
      List.iteri
        (fun i v ->
          if int "cycle" v < 0 then fail "record %d: negative cycle" i;
          if int "gate" v < 0 then fail "record %d: negative gate" i;
          let a = str "assumed" v and o = str "observed" v in
          if a = o then
            fail "record %d: assumed %S equals observed — not a violation" i a;
          if str "reason" v = "" then fail "record %d: empty reason" i;
          if not (contains ~needle:"cut" (str "detail" v)) then
            fail "record %d: detail %S carries no cut provenance" i (str "detail" v))
        violations;
      if int "cycles" summary < 1 then fail "summary checked no cycles";
      let total = int "violations" summary in
      let gates = int "violating_gates" summary in
      let records = List.length violations in
      if gates <> records then
        fail "summary names %d violating gate(s), stream carries %d record(s)" gates
          records;
      if total < gates then
        fail "summary violations %d below its %d violating gate(s)" total gates;
      if bool "clean" summary <> (total = 0) then
        fail "summary clean flag disagrees with %d violation(s)" total;
      (match expect with
      | "clean" ->
        if records <> 0 || total <> 0 then
          fail
            "reports %d violation(s) — a tailored design must satisfy every cut \
             assumption of its own workload"
            total
      | "violated" ->
        if records < 1 || total < 1 then
          fail "is silent — the unsupported workload must trip a monitor"
      | e -> fail "guard expects clean or violated, not %S" e);
      Printf.sprintf "%s on core %s, %d violation(s) on %d gate(s)" expect core total
        records)
  | _ -> fail "guard takes the expected CORE and clean|violated"

(* ---- Chrome-trace JSONL ---- *)

(* B/E balance per tid in LIFO order is not negotiable: an exporter
   that leaves a span open must close it itself (as truncated). *)
let trace path wants =
  let events = parse_lines path in
  if events = [] then fail "empty trace";
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let metadata = ref 0 and begun = Hashtbl.create 64 in
  List.iter
    (fun j ->
      let tid = int "tid" j and name = str "name" j in
      if num "ts" j < 0.0 then fail "negative timestamp on %S" name;
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match str "ph" j with
      | "B" ->
        Hashtbl.replace begun name ();
        Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
        match stack with
        | top :: rest ->
          if top <> name then fail "E %S does not close innermost B %S" name top;
          Hashtbl.replace stacks tid rest
        | [] -> fail "E %S with no open span" name)
      | "i" -> ()
      | "M" ->
        if name <> "process_name" && name <> "thread_name" then
          fail "unknown metadata event %S" name;
        incr metadata
      | ph -> fail "unexpected ph %S" ph)
    events;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then fail "tid %d ends with %d unclosed spans" tid (List.length stack))
    stacks;
  if !metadata = 0 then fail "no M-phase track metadata — Perfetto tracks would be unnamed";
  List.iter (fun w -> if not (Hashtbl.mem begun w) then fail "no %s spans" w) wants;
  Printf.sprintf "%d trace events balanced, %d track name(s)" (List.length events)
    !metadata

(* ---- metrics: one snapshot, or a bespoke-metrics/v1 series ---- *)

let check_snapshot prefixes m =
  let names =
    List.sort_uniq String.compare
      (List.concat_map (fun k -> List.map fst (fields k m)) [ "counters"; "gauges"; "histograms" ])
  in
  if List.length names < 8 then
    fail "only %d distinct metric names (want >= 8): %s" (List.length names)
      (String.concat ", " names);
  List.iter
    (fun (hname, h) ->
      List.iter
        (fun k -> if J.mem_num k h = None then fail "histogram %S lacks %S" hname k)
        [ "count"; "p50"; "p90"; "p99" ])
    (fields "histograms" m);
  List.iter
    (fun prefix ->
      if not (List.exists (String.starts_with ~prefix) names) then
        fail "no %S metrics in snapshot" prefix)
    prefixes;
  List.length names

let metrics path prefixes =
  match parse_lines path with
  | [] -> fail "empty metrics file"
  | [ snapshot ] when J.member "schema" snapshot = None ->
    Printf.sprintf "snapshot with %d metrics" (check_snapshot prefixes snapshot)
  | header :: snaps ->
    schema_is Bespoke_obs.Obs.Sampler.schema header;
    if num "interval_ms" header <= 0.0 then fail "interval_ms <= 0";
    if List.length snaps < 2 then
      fail "only %d snapshot(s), want >= 2" (List.length snaps);
    ignore
      (List.fold_left
         (fun (prev_seq, prev_ts) s ->
           let seq = int "seq" s and ts = num "ts_us" s in
           if seq <> prev_seq + 1 then fail "snapshot seq %d after %d" seq prev_seq;
           if ts < prev_ts then fail "ts_us goes backwards";
           ignore (fields "metrics" s);
           (seq, ts))
         (-1, 0.0) snaps);
    (* the last snapshot must carry the full registry *)
    let last = mem "metrics" (List.nth snaps (List.length snaps - 1)) in
    if fields "histograms" last = [] then fail "histograms section is empty";
    Printf.sprintf "%d snapshot(s), %d metrics" (List.length snaps)
      (check_snapshot prefixes last)

(* ---- rendered stats output ---- *)

let stats_output path needles =
  let text = read_file path in
  if text = "" then fail "stats output is empty";
  List.iter
    (fun needle -> if not (contains ~needle text) then fail "stats output lacks %S" needle)
    needles;
  Printf.sprintf "%d marker(s) present" (List.length needles)

let checks =
  [
    ("report", report);
    ("verify", verify);
    ("campaign", campaign);
    ("guard", guard);
    ("trace", trace);
    ("metrics", metrics);
    ("stats-output", stats_output);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: kind :: path :: args when List.mem_assoc kind checks ->
    where := kind ^ " " ^ path;
    let summary = (List.assoc kind checks) path args in
    Printf.printf "schema-check %s %s: OK (%s)\n" kind path summary
  | _ ->
    prerr_endline
      ("usage: schema_check KIND FILE [ARG...], KIND one of "
      ^ String.concat ", " (List.map fst checks));
    exit 2
