(* The artifact contract, checked from the failing side: every invariant
   a Stats reader enforces is broken, one at a time, on an otherwise
   valid artifact of its kind.  The reader must refuse the file and its
   message must name the invariant. *)

module Stats = Bespoke_obs.Stats

let index_of needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

(* [sub text [(old, new); ...]]: [text] with the first occurrence of
   each [old] replaced, in order; a missing [old] is a fixture bug. *)
let sub text edits =
  List.fold_left
    (fun t (o, n) ->
      match index_of o t with
      | None -> Alcotest.failf "fixture lacks %S" o
      | Some i ->
        String.sub t 0 i ^ n ^ String.sub t (i + String.length o)
          (String.length t - i - String.length o))
    text edits

let lines l = String.concat "\n" l ^ "\n"

let load = Stats.read ~name:"fixture"

(* [cases] pairs the invariant's message (a substring of it) with the
   broken artifact. *)
let contract kind valid is_kind cases () =
  (match load valid with
  | Ok a when is_kind a -> ()
  | Ok _ -> Alcotest.failf "valid %s fixture read as another kind" kind
  | Error m -> Alcotest.failf "valid %s fixture rejected: %s" kind m);
  List.iter
    (fun (invariant, text) ->
      match load text with
      | Ok _ -> Alcotest.failf "%s: broken %S accepted" kind invariant
      | Error m ->
        if index_of invariant m = None then
          Alcotest.failf "%s: want %S, got %S" kind invariant m)
    cases

(* ---- bespoke-report/v1 ---- *)

let report_bench =
  {|{"name":"m","gates":{"original":100,"cut":40,"bespoke":50,"saved_pct":50},"area_um2":{"original":200,"bespoke":80,"saved_pct":60},"leakage_nw":{"original":10,"bespoke":4,"saved_pct":60},"timing":{"critical_ps_original":1000,"critical_ps_bespoke":900,"vmin_v":0.8},"analysis":{"cycles":78},"cut_reasons":{"kept":45,"downsized":5,"never-toggled":40,"merged":10},"modules":[{"module":"(total)","gates_original":100,"gates_bespoke":50,"area_original_um2":200}]}|}

let report =
  {|{"schema":"bespoke-report/v1","generator":"g","benchmarks":[|} ^ report_bench
  ^ "]}"

let report_cases =
  let r = sub report in
  [
    ("unexpected schema tag", r [ ("report/v1", "report/v2") ]);
    ({|"generator"|}, r [ ({|"generator":"g",|}, "") ]);
    ("lists no benchmarks", r [ (report_bench, "") ]);
    ("gates.original is not positive", r [ ({|"original":100,"cut"|}, {|"original":0,"cut"|}) ]);
    ("gates.bespoke 150 outside", r [ ({|"bespoke":50,|}, {|"bespoke":150,|}) ]);
    ("area_um2.saved_pct", r [ ({|"saved_pct":60},"leak|}, {|"saved_pct":61},"leak|}) ]);
    ("leakage_nw.saved_pct", r [ ({|"bespoke":4,"saved_pct":60|}, {|"bespoke":4,"saved_pct":59|}) ]);
    ("gates.cut 140 out of range", r [ ({|"cut":40|}, {|"cut":140|}) ]);
    ("critical path longer", r [ ({|"critical_ps_bespoke":900|}, {|"critical_ps_bespoke":1100|}) ]);
    ("non-positive Vmin", r [ ({|"vmin_v":0.8|}, {|"vmin_v":0|}) ]);
    ("analysis simulated no cycles", r [ ({|"cycles":78|}, {|"cycles":0|}) ]);
    ("cut reasons sum to 101", r [ ({|"merged":10|}, {|"merged":11|}) ]);
    ( "kept + downsized",
      r [ ({|"kept":45|}, {|"kept":44|}); ({|"merged":10|}, {|"merged":11|}) ] );
    ( "never-toggled 39 does not match",
      r [ ({|"never-toggled":40|}, {|"never-toggled":39|}); ({|"merged":10|}, {|"merged":11|}) ] );
    ("no (total) attribution row", r [ ("(total)", "alu") ]);
    ("attribution gates_original 99", r [ ({|"gates_original":100|}, {|"gates_original":99|}) ]);
    ("attribution gates_bespoke 49", r [ ({|"gates_bespoke":50|}, {|"gates_bespoke":49|}) ]);
    ("attribution area_original_um2 250", r [ ({|"area_original_um2":200|}, {|"area_original_um2":250|}) ]);
  ]

(* ---- bespoke-analysis/v1 ---- *)

let analysis =
  {|{"schema":"bespoke-analysis/v1","generator":"g","benchmark":"m","analysis":{"paths":3,"merges":1,"prunes":2,"escapes":0,"cycles":78},"modules":[{"module":"alu","exercisable":5,"total":9}]}|}

let analysis_cases =
  let a = sub analysis in
  [
    ("unexpected schema tag", a [ ("analysis/v1", "analysis/v2") ]);
    ({|"generator"|}, a [ ({|"generator":"g",|}, "") ]);
    ({|"benchmark"|}, a [ ({|"benchmark":"m",|}, "") ]);
    ("analysis.paths is negative", a [ ({|"paths":3|}, {|"paths":-1|}) ]);
    ("analysis.merges is negative", a [ ({|"merges":1|}, {|"merges":-1|}) ]);
    ("analysis.prunes is negative", a [ ({|"prunes":2|}, {|"prunes":-1|}) ]);
    ("analysis.escapes is negative", a [ ({|"escapes":0|}, {|"escapes":-1|}) ]);
    ("analysis.cycles is negative", a [ ({|"cycles":78|}, {|"cycles":-1|}) ]);
    ("module alu has 10 exercisable of 9", a [ ({|"exercisable":5|}, {|"exercisable":10|}) ]);
    ("module alu has -1 exercisable", a [ ({|"exercisable":5|}, {|"exercisable":-1|}) ]);
  ]

(* ---- bespoke-verify/v1 ---- *)

let verify_bench =
  {|{"name":"m","core":"msp430","gates":{"original":100,"bespoke":50},"symbolic":{"equivalent":true,"paths":1},"inputs":{"count":2,"seeds":[1,2],"line_pct":100,"branch_pct":90,"branch_dir_pct":80,"gate_pct":70,"all_ok":true},"verdict":"equivalent","fault_injection":{"injected":3,"killed_input":1,"killed_symbolic":1,"survived":1,"detectable":2,"detectable_killed":2,"detectable_score_pct":100,"faults":[{"kill":"input","detectable":true,"repro":{"seeds":[2],"what":"r7","at_insn":1}},{"kill":"symbolic","detectable":true,"detail":"d"},{"kill":"survived","detectable":false}]}}|}

let verify =
  {|{"schema":"bespoke-verify/v1","generator":"g","core":"msp430","benchmarks":[|}
  ^ verify_bench ^ "]}"

let verify_cases =
  let v = sub verify in
  let kills ki ks sv =
    v
      [
        ( {|"killed_input":1,"killed_symbolic":1,"survived":1|},
          Printf.sprintf {|"killed_input":%d,"killed_symbolic":%d,"survived":%d|} ki
            ks sv );
      ]
  in
  [
    ("unexpected schema tag", v [ ("verify/v1", "verify/v2") ]);
    ({|"generator"|}, v [ ({|"generator":"g",|}, "") ]);
    ( {|benchmark core "msp430", header says "rv32"|},
      v [ ({|"core":"msp430","benchmarks"|}, {|"core":"rv32","benchmarks"|}) ] );
    ("lists no benchmarks", v [ (verify_bench, "") ]);
    ("no original gates", v [ ({|"original":100|}, {|"original":0|}) ]);
    ("bespoke gate count 0 outside", v [ ({|"bespoke":50|}, {|"bespoke":0|}) ]);
    ("not equivalent", v [ ({|"verdict":"equivalent"|}, {|"verdict":"differs"|}) ]);
    ("symbolic layer disagrees", v [ ({|"equivalent":true|}, {|"equivalent":false|}) ]);
    ("no symbolic paths", v [ ({|"paths":1|}, {|"paths":0|}) ]);
    ("no co-simulated inputs", v [ ({|"count":2|}, {|"count":0|}) ]);
    ("inputs.count disagrees", v [ ({|"seeds":[1,2]|}, {|"seeds":[1]|}) ]);
    ("an input run diverged", v [ ({|"all_ok":true|}, {|"all_ok":false|}) ]);
    ("branch_pct 190 outside [0, 100]", v [ ({|"branch_pct":90|}, {|"branch_pct":190|}) ]);
    ("no gate toggled", v [ ({|"gate_pct":70|}, {|"gate_pct":0|}) ]);
    ("kill classes sum to 4, 3 injected", kills 1 1 2);
    ( "faults array length disagrees",
      v [ ({|"injected":3,"killed_input":1|}, {|"injected":4,"killed_input":2|}) ] );
    ("unknown kill class", v [ ({|"kill":"survived"|}, {|"kill":"zapped"|}) ]);
    ("input-killed fault with empty repro", v [ ({|"repro":{"seeds":[2]|}, {|"repro":{"seeds":[]|}) ]);
    ({|"what"|}, v [ ({|"what":"r7",|}, "") ]);
    ({|"at_insn"|}, v [ ({|,"at_insn":1|}, "") ]);
    ({|"detail"|}, v [ ({|,"detail":"d"|}, "") ]);
    ("killed_input disagrees", kills 2 0 1);
    ("killed_symbolic disagrees", kills 1 0 2);
    ("detectable disagrees", v [ ({|"detectable":2,|}, {|"detectable":1,|}) ]);
    ("detectable_killed disagrees", v [ ({|"detectable_killed":2|}, {|"detectable_killed":1|}) ]);
    ( "campaign drew no detectable fault",
      v
        [
          ({|"detectable":2,"detectable_killed":2|}, {|"detectable":0,"detectable_killed":0|});
          ({|"detectable":true|}, {|"detectable":false|});
          ({|"detectable":true|}, {|"detectable":false|});
        ] );
    ("detectable kill score 50", v [ ({|"detectable_score_pct":100|}, {|"detectable_score_pct":50|}) ]);
  ]

(* ---- bespoke-campaign/v1 ---- *)

let campaign_summary =
  {|{"summary":true,"total":2,"ok":1,"failed":1,"cache_hits":1,"wall_s":0.3}|}

let campaign_error =
  {|{"job":1,"kind":"run","bench":"m","cached":true,"time_s":0.2,"status":"error","error":"boom"}|}

let campaign =
  lines
    [
      {|{"schema":"bespoke-campaign/v1","total_jobs":2,"jobs":1}|};
      {|{"job":0,"kind":"analyze","bench":"m","cached":false,"time_s":0.1,"status":"ok","payload":{"paths":1}}|};
      {|{"heartbeat":true,"seq":0,"done":1,"total":2,"jobs_per_sec":5,"cache_hit_rate":0}|};
      campaign_error;
      {|{"heartbeat":true,"seq":1,"done":2,"total":2,"jobs_per_sec":5,"cache_hit_rate":0.5}|};
      campaign_summary;
    ]

let campaign_cases =
  let c = sub campaign in
  [
    ("unexpected schema tag", c [ ("campaign/v1", "campaign/v2") ]);
    ("last line is not the summary", c [ (campaign_summary, "") ]);
    ("header jobs < 1", c [ ({|"jobs":1}|}, {|"jobs":0}|}) ]);
    ("header promises 2 jobs, stream carries 1", c [ (campaign_error, "") ]);
    ("carries job index 2 outside [0, 2)", c [ ({|"job":1|}, {|"job":2|}) ]);
    ("unknown kind", c [ ({|"kind":"run"|}, {|"kind":"fly"|}) ]);
    ("empty bench name", c [ ({|"bench":"m","cached":true|}, {|"bench":"","cached":true|}) ]);
    ("negative time_s", c [ ({|"time_s":0.2|}, {|"time_s":-0.2|}) ]);
    ({|"cached"|}, c [ ({|"cached":true|}, {|"cached":1|}) ]);
    ("ok with an empty payload", c [ ({|"payload":{"paths":1}|}, {|"payload":{}|}) ]);
    ("payload is not an object", c [ ({|"payload":{"paths":1}|}, {|"payload":[]|}) ]);
    ("error record with no message", c [ ({|"error":"boom"|}, {|"error":""|}) ]);
    ("neither ok nor error", c [ ({|"status":"error"|}, {|"status":"meh"|}) ]);
    ("not a permutation", c [ ({|"job":1|}, {|"job":0|}) ]);
    ( "no job succeeded",
      c [ ({|"status":"ok","payload":{"paths":1}|}, {|"status":"error","error":"x"|}) ] );
    ("summary total 3 disagrees", c [ ({|"total":2,"ok"|}, {|"total":3,"ok"|}) ]);
    ("summary ok 2 disagrees", c [ ({|"ok":1,"failed"|}, {|"ok":2,"failed"|}) ]);
    ("summary failed 0 disagrees", c [ ({|"failed":1,"cache|}, {|"failed":0,"cache|}) ]);
    ("summary wall_s negative", c [ ({|"wall_s":0.3|}, {|"wall_s":-0.3|}) ]);
    ("heartbeat seq 0 not increasing", c [ ({|"seq":1|}, {|"seq":0|}) ]);
    ("heartbeat done 3 exceeds", c [ ({|"done":1|}, {|"done":3|}) ]);
    ("jobs_per_sec < 0", c [ ({|"jobs_per_sec":5|}, {|"jobs_per_sec":-5|}) ]);
    ("cache_hit_rate 1.5 outside", c [ ({|"cache_hit_rate":0.5|}, {|"cache_hit_rate":1.5|}) ]);
    ("final heartbeat done 1 <> total 2", c [ ({|"seq":1,"done":2|}, {|"seq":1,"done":1|}) ]);
  ]

(* ---- bespoke-guard/v1 ---- *)

let guard_summary =
  {|{"summary":true,"cycles":40,"violations":2,"violating_gates":1,"clean":false}|}

let guard =
  lines
    [
      {|{"schema":"bespoke-guard/v1","core":"msp430","design":"d","workload":"w","mode":"shadow","assumptions":10,"monitors":4,"implied":5,"unmonitorable":1}|};
      {|{"cycle":3,"gate":7,"assumed":"1","observed":"0","reason":"never-toggled","detail":"cut: never toggles"}|};
      guard_summary;
    ]

let guard_cases =
  let g = sub guard in
  [
    ("unexpected schema tag", g [ ("guard/v1", "guard/v2") ]);
    ({|"core"|}, g [ ({|"core":"msp430",|}, "") ]);
    ("empty design name", g [ ({|"design":"d"|}, {|"design":""|}) ]);
    ("empty workload name", g [ ({|"workload":"w"|}, {|"workload":""|}) ]);
    ("unknown mode", g [ ({|"mode":"shadow"|}, {|"mode":"dream"|}) ]);
    ("no monitors in the plan", g [ ({|"monitors":4,"implied":5|}, {|"monitors":0,"implied":9|}) ]);
    ("coverage split", g [ ({|"implied":5|}, {|"implied":6|}) ]);
    ("last line is not the summary", g [ (guard_summary, "") ]);
    ("negative cycle", g [ ({|"cycle":3|}, {|"cycle":-3|}) ]);
    ("negative gate", g [ ({|"gate":7|}, {|"gate":-7|}) ]);
    ("equals observed", g [ ({|"observed":"0"|}, {|"observed":"1"|}) ]);
    ("empty reason", g [ ({|"reason":"never-toggled"|}, {|"reason":""|}) ]);
    ("carries no cut provenance", g [ ({|"detail":"cut: |}, {|"detail":"|}) ]);
    ("summary checked no cycles", g [ ({|"cycles":40|}, {|"cycles":0|}) ]);
    ("summary names 2 violating gate(s)", g [ ({|"violating_gates":1|}, {|"violating_gates":2|}) ]);
    ("summary violations 0 below", g [ ({|"violations":2|}, {|"violations":0|}) ]);
    ("clean flag disagrees", g [ ({|"clean":false|}, {|"clean":true|}) ]);
  ]

(* ---- Chrome-trace JSONL ---- *)

let trace_meta = {|{"name":"process_name","ph":"M","ts":0,"tid":0,"args":{"name":"p"}}|}
let trace_begin = {|{"name":"outer","ph":"B","ts":1,"tid":0}|}
let trace_end = {|{"name":"outer","ph":"E","ts":4,"tid":0}|}

let trace =
  lines
    [
      trace_meta;
      trace_begin;
      {|{"name":"inner","ph":"B","ts":2,"tid":0}|};
      {|{"name":"mark","ph":"i","ts":2.5,"tid":0}|};
      {|{"name":"inner","ph":"E","ts":3,"tid":0}|};
      trace_end;
    ]

let trace_cases =
  let t = sub trace in
  [
    ("empty", "");
    ("negative timestamp", t [ ({|"ts":1,|}, {|"ts":-1,|}) ]);
    ( "does not close innermost B",
      t [ ({|"name":"inner","ph":"E"|}, {|"name":"outer","ph":"E"|}) ] );
    ({|E "outer" with no open span|}, t [ (trace_begin ^ "\n", "") ]);
    ("unknown metadata event", t [ ("process_name", "color") ]);
    ("unexpected ph", t [ ({|"ph":"i"|}, {|"ph":"X"|}) ]);
    ("unclosed spans", t [ (trace_end ^ "\n", "") ]);
    ("no M-phase track metadata", t [ (trace_meta ^ "\n", "") ]);
  ]

(* ---- metrics: one snapshot, or a bespoke-metrics/v1 series ---- *)

let snapshot =
  {|{"counters":{"a.1":1,"a.2":2,"a.3":3,"a.4":4},"gauges":{"g.1":0.5,"g.2":1},"histograms":{"h.1":{"count":1,"p50":1,"p90":1,"p99":1},"h.2":{"count":0,"p50":0,"p90":0,"p99":0}}}|}

let snapshot_cases =
  let s = sub snapshot in
  [
    ("only 7 distinct metric names", s [ ({|,"a.4":4|}, "") ]);
    ({|histogram "h.1" lacks "p90"|}, s [ ({|"p90":1,|}, "") ]);
  ]

let series_of snapshots =
  lines
    ({|{"schema":"bespoke-metrics/v1","interval_ms":20}|}
    :: List.mapi
         (fun i m -> Printf.sprintf {|{"seq":%d,"ts_us":%d.0,"metrics":%s}|} i (i + 1) m)
         snapshots)

let series = series_of [ snapshot; snapshot ]

let series_cases =
  let s = sub series in
  [
    ("unexpected schema tag", s [ ("metrics/v1", "metrics/v2") ]);
    ("interval_ms <= 0", s [ ({|"interval_ms":20|}, {|"interval_ms":0|}) ]);
    ("only 1 snapshot(s)", series_of [ snapshot ]);
    ("snapshot seq 2 after 0", s [ ({|"seq":1|}, {|"seq":2|}) ]);
    ("ts_us goes backwards", s [ ({|"ts_us":2.0|}, {|"ts_us":0.5|}) ]);
    ({|"metrics"|}, s [ ({|"metrics":|}, {|"metrix":|}) ]);
    ( "histograms section is empty",
      series_of
        [
          snapshot;
          {|{"counters":{"a.1":1,"a.2":2,"a.3":3,"a.4":4,"a.5":5,"a.6":6},"gauges":{"g.1":0.5,"g.2":1},"histograms":{}}|};
        ] );
  ]

(* ---- BENCH_sim.json and bespoke-bench/v1 history ---- *)

let bench_row =
  {|{"name":"m","core":"msp430","cycles_per_sec":{"full":10,"packed":20,"compiled":30}}|}

let bench_sim =
  {|{"benchmarks":[|} ^ bench_row
  ^ {|],"obs_overhead":[{"engine":"compiled"}],"campaign":{"speedup_cold_jobs4_vs_oneshot":3,"speedup_warm_vs_cold":6,"jobs_per_sec":{"cold":1}},"guard_overhead":{"monitors":5,"watch_slowdown":0.2}}|}

let bench_sim_cases =
  let b = sub bench_sim in
  [
    ("no benchmark rows", b [ (bench_row, "") ]);
    ("cycles_per_sec keys are [full; compiled]", b [ ({|"packed":20,|}, "") ]);
    ("compiled 5 < full 10", b [ ({|"compiled":30|}, {|"compiled":5|}) ]);
    ("obs_overhead must hold one compiled-engine row", b [ ({|"engine":"compiled"|}, {|"engine":"full"|}) ]);
    ("campaign cold speedup 2.40x < 2.5x", b [ ({|oneshot":3|}, {|oneshot":2.4|}) ]);
    ("warm-cache speedup 4.90x < 5x", b [ ({|"speedup_warm_vs_cold":6|}, {|"speedup_warm_vs_cold":4.9|}) ]);
    ("records no monitors", b [ ({|"monitors":5|}, {|"monitors":0|}) ]);
    ("watch_slowdown 0.260 > 0.25", b [ ({|"watch_slowdown":0.2|}, {|"watch_slowdown":0.26|}) ]);
  ]

(* the first line predates the engine columns of today's bars *)
let history =
  lines
    [
      {|{"schema":"bespoke-bench/v1","unix_time":1,"label":"a","bench":{"benchmarks":[{"name":"m","cycles_per_sec":{"event":5,"full":10}}]}}|};
      {|{"schema":"bespoke-bench/v1","unix_time":2,"label":"b","bench":|} ^ bench_sim ^ "}";
    ]

let history_cases =
  let h = sub history in
  [
    ( "unexpected schema tag",
      h [ ({|bench/v1","unix_time":2|}, {|bench/v2","unix_time":2|}) ] );
    ({|"unix_time"|}, h [ ({|"unix_time":1,|}, "") ]);
    ({|"label"|}, h [ ({|"label":"b",|}, "") ]);
    ("line 1: no bench metrics", h [ ({|{"event":5,"full":10}|}, "{}") ]);
  ]

(* A live JSONL stream can end mid-record (crash, kill -9, full disk).
   Cut before its last line, each stream still loads — the records
   before the cut aggregate, and the invariants only a finished stream
   meets are not asked of it — while the same cut anywhere else stays
   fatal. *)
let truncated () =
  let cut = {|{"cycle":12,"ga|} in
  List.iter
    (fun (kind, text, expect) ->
      let ls = String.split_on_char '\n' (String.trim text) in
      let head = List.filteri (fun i _ -> i < List.length ls - 1) ls in
      (match load (lines (head @ [ cut ])) with
      | Ok a -> if not (expect a) then Alcotest.failf "truncated %s: wrong aggregate" kind
      | Error m -> Alcotest.failf "truncated %s rejected: %s" kind m);
      match load (lines (head @ [ cut; List.nth ls (List.length head) ])) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "mid-stream %s corruption accepted" kind)
    [
      ("trace", trace, function Stats.Trace [ s ] -> s.Stats.span_name = "inner" | _ -> false);
      ("series", series, function Stats.Series s -> s.Stats.snapshots = 1 | _ -> false);
      ( "campaign", campaign,
        function Stats.Campaign c -> c.Stats.c_ok = 1 && c.Stats.c_total = 2 | _ -> false );
      ( "guard", guard,
        function
        | Stats.Guard g ->
          (not g.Stats.g_clean) && g.Stats.g_violations = 1
          && g.Stats.g_reasons = [ ("never-toggled", 1) ]
        | _ -> false );
    ]

let () =
  let case kind valid is_kind cases =
    Alcotest.test_case kind `Quick (contract kind valid is_kind cases)
  in
  Alcotest.run "contract"
    [
      ( "every invariant fires",
        [
          case "report" report (function Stats.Report _ -> true | _ -> false) report_cases;
          case "analysis" analysis (function Stats.Analysis _ -> true | _ -> false)
            analysis_cases;
          case "verify" verify (function Stats.Verify _ -> true | _ -> false) verify_cases;
          case "campaign" campaign (function Stats.Campaign _ -> true | _ -> false) campaign_cases;
          case "guard" guard (function Stats.Guard _ -> true | _ -> false) guard_cases;
          case "trace" trace (function Stats.Trace _ -> true | _ -> false) trace_cases;
          case "metrics snapshot" snapshot (function Stats.Snapshot _ -> true | _ -> false)
            snapshot_cases;
          case "metrics series" series (function Stats.Series _ -> true | _ -> false) series_cases;
          case "bench-sim" bench_sim (function Stats.Bench_sim _ -> true | _ -> false)
            bench_sim_cases;
          case "bench history" history (function Stats.History _ -> true | _ -> false)
            history_cases;
        ] );
      ("streams", [ Alcotest.test_case "truncated final line tolerated" `Quick truncated ]);
    ]
