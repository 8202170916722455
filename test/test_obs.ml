(* Tests for the Obs telemetry subsystem: span nesting and ordering,
   JSONL export well-formedness, histogram percentiles, metrics from a
   real tailor run, and the disabled-by-default no-op guarantee. *)

module Obs = Bespoke_obs.Obs
module Stats = Bespoke_obs.Stats
module B = Bespoke_programs.Benchmark
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Pool = Bespoke_core.Pool
let core = Bespoke_cpu.Msp430.core

(* Every test leaves the global collector disabled and empty so test
   order never matters. *)
let with_tracing f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.disable ())
    f

let run_tailor_mult () =
  let report, net = Runner.analyze ~core (B.find "mult") in
  Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
    ~constants:report.Activity.constant_values

(* ---- spans ---- *)

let test_span_nesting () =
  with_tracing (fun () ->
      let r =
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner"
              ~args:[ ("k", "v") ]
              (fun () -> 41 + 1))
      in
      Alcotest.(check int) "result threaded through" 42 r;
      let events = Obs.Trace.events () in
      Alcotest.(check (list (pair string char)))
        "B/E sequence"
        [ ("outer", 'B'); ("inner", 'B'); ("inner", 'E'); ("outer", 'E') ]
        (List.map (fun (e : Obs.Trace.event) -> (e.name, e.ph)) events);
      let ts = List.map (fun (e : Obs.Trace.event) -> e.ts_us) events in
      Alcotest.(check bool)
        "timestamps non-decreasing" true
        (List.sort compare ts = ts);
      let inner_b = List.nth events 1 in
      Alcotest.(check (list (pair string string)))
        "args attached to B" [ ("k", "v") ] inner_b.args)

let test_span_end_on_raise () =
  with_tracing (fun () ->
      (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "no") with
      | Failure _ -> ());
      Alcotest.(check (list (pair string char)))
        "span closed despite raise"
        [ ("boom", 'B'); ("boom", 'E') ]
        (List.map
           (fun (e : Obs.Trace.event) -> (e.name, e.ph))
           (Obs.Trace.events ())))

let test_spans_across_domains () =
  with_tracing (fun () ->
      let workers =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                Obs.Span.with_ ~name:(Printf.sprintf "worker-%d" i) (fun () ->
                    ())))
      in
      List.iter Domain.join workers;
      Obs.Span.with_ ~name:"main" (fun () -> ());
      let events = Obs.Trace.events () in
      Alcotest.(check int) "all buffers merged" 8 (List.length events);
      (* B/E balance per domain, and events from joined domains kept *)
      let depth : (int, int) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth e.tid) in
          let d = d + (if e.ph = 'B' then 1 else -1) in
          if d < 0 then Alcotest.failf "tid %d: E before B" e.tid;
          Hashtbl.replace depth e.tid d)
        events;
      Hashtbl.iter
        (fun tid d ->
          if d <> 0 then Alcotest.failf "tid %d: %d unclosed spans" tid d)
        depth;
      Alcotest.(check bool)
        "events span multiple domains" true
        (Hashtbl.length depth > 1))

(* ---- JSONL export from a real flow ---- *)

let json_str k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.failf "field %S missing or not a string" k

let json_num k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Num n) -> n
  | _ -> Alcotest.failf "field %S missing or not a number" k

(* A trace export must pass the Stats trace reader (ts >= 0, B/E
   balanced per tid in LIFO order, track metadata); its lines. *)
let checked_trace () =
  let text = Obs.Trace.to_jsonl () in
  match Stats.read ~name:"trace export" text with
  | Ok (Stats.Trace _) -> String.split_on_char '\n' text
  | Ok _ -> Alcotest.fail "trace export read as another kind"
  | Error m -> Alcotest.failf "trace export invalid: %s" m

let test_jsonl_wellformed () =
  with_tracing (fun () ->
      ignore (run_tailor_mult ());
      ignore (checked_trace ()))

(* A pool worker parks inside an open [pool.idle] span once a map
   drains; exporting then must close that span with a synthesized,
   truncated-marked end event.  An explicit ~jobs is not clamped, so
   this spawns a worker on any host. *)
let test_parked_worker_closed () =
  with_tracing (fun () ->
      ignore (Pool.map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4 ]);
      let open_idle () =
        let depth = Hashtbl.create 4 in
        List.iter
          (fun (e : Obs.Trace.event) ->
            if e.name = "pool.idle" then
              let d = Option.value ~default:0 (Hashtbl.find_opt depth e.tid) in
              Hashtbl.replace depth e.tid (if e.ph = 'B' then d + 1 else d - 1))
          (Obs.Trace.events ());
        Hashtbl.fold (fun _ d acc -> acc || d > 0) depth false
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (open_idle ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check bool) "a worker is parked in pool.idle" true (open_idle ());
      let closed_as_truncated l =
        match Obs.Json.parse l with
        | Ok j ->
          json_str "ph" j = "E" && json_str "name" j = "pool.idle"
          && Option.bind (Obs.Json.member "args" j) (Obs.Json.mem_str "truncated")
             = Some "true"
        | Error _ -> false
      in
      Alcotest.(check bool) "the parked span is closed as truncated" true
        (List.exists closed_as_truncated (checked_trace ())))

(* ---- the JSON encoders ---- *)

(* Strings built from the bytes an escaper gets wrong: quote,
   backslash, every control byte (NUL included), DEL, and valid
   2/3/4-byte UTF-8. *)
let adversarial =
  let pieces =
    [ "\""; "\\"; "\x7f"; "a"; "Z"; " "; "/"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e" ]
    @ List.init 0x20 (fun c -> String.make 1 (Char.chr c))
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(map (String.concat "") (list_size (int_bound 24) (oneofl pieces)))

let nasty = "q\"b\\\x00n\n\x01\x1f\x7f\xc3\xa9\xe2\x82\xac\xf0\x9d\x84\x9e\t\r\x08\x0c"

let prop_str_roundtrip =
  QCheck.Test.make ~name:"parse (str s) = Str s" ~count:500 adversarial (fun s ->
      Obs.Json.parse (Obs.Json.str s) = Ok (Obs.Json.Str s))

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"nested obj/arr parse back field for field" ~count:300
    (QCheck.pair adversarial adversarial) (fun (k, v) ->
      let module J = Obs.Json in
      J.parse
        (J.obj
           [
             (k, J.str v);
             ("list", J.arr [ J.str k; J.str v; J.obj [ (v, J.str k) ] ]);
           ])
      = Ok
          (J.Obj
             [
               (k, J.Str v);
               ("list", J.Arr [ J.Str k; J.Str v; J.Obj [ (v, J.Str k) ] ]);
             ]))

let prop_int_exact =
  QCheck.Test.make ~name:"integers below 1e15 round-trip exactly" ~count:500
    (QCheck.int_range (-999_999_999_999_999) 999_999_999_999_999) (fun i ->
      let f = float_of_int i in
      Obs.Json.num f = string_of_int i && Obs.Json.parse (Obs.Json.num f) = Ok (Obs.Json.Num f))

let test_num_nonfinite () =
  List.iter
    (fun f -> Alcotest.(check string) (Printf.sprintf "%h encodes as 0" f) "0" (Obs.Json.num f))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* The emitted artifacts themselves stay valid JSON for any string. *)
let test_artifacts_adversarial () =
  let module Campaign = Bespoke_campaign.Campaign in
  let module Verify = Bespoke_verify.Verify in
  let o =
    {
      Campaign.o_job = Campaign.job (Campaign.Named nasty);
      o_index = 0;
      status = Error nasty;
      time_s = Float.nan;
      cached = false;
    }
  in
  (match Obs.Json.parse (Campaign.outcome_jsonl o) with
  | Error m -> Alcotest.failf "campaign error record does not parse: %s" m
  | Ok j ->
    Alcotest.(check string) "error message intact" nasty (json_str "error" j);
    Alcotest.(check string) "bench name intact" nasty (json_str "bench" j);
    Alcotest.(check (float 0.0)) "NaN time encodes as 0" 0.0 (json_num "time_s" j));
  let c = Verify.check_benchmark ~faults:1 ~core (B.find "mult") in
  let c =
    {
      c with
      Verify.benchmark = nasty;
      symbolic = { c.Verify.symbolic with Verify.sym_detail = Some nasty };
      faults = List.map (fun fr -> { fr with Verify.kill = Verify.Killed_symbolic nasty }) c.faults;
    }
  in
  match Obs.Json.parse (Verify.to_json [ c ]) with
  | Error m -> Alcotest.failf "verify artifact does not parse: %s" m
  | Ok j -> (
    match Obs.Json.mem_arr "benchmarks" j with
    | Some [ b ] ->
      Alcotest.(check string) "benchmark name intact" nasty (json_str "name" b);
      Alcotest.(check (option string)) "symbolic detail intact" (Some nasty)
        (Option.bind (Obs.Json.member "symbolic" b) (Obs.Json.mem_str "detail"))
    | _ -> Alcotest.fail "verify artifact lists one benchmark")

(* ---- histograms ---- *)

let test_histogram_percentiles () =
  with_tracing (fun () ->
      let h = Obs.Metrics.histogram "test.uniform" in
      for i = 1 to 1000 do
        Obs.Metrics.observe h i
      done;
      Alcotest.(check int) "count" 1000 (Obs.Metrics.histogram_count h);
      let p50 = Obs.Metrics.percentile h 0.5 in
      let p99 = Obs.Metrics.percentile h 0.99 in
      (* log-scale buckets: the answer is only factor-of-two accurate,
         so check bucket bounds, not exact quantiles *)
      Alcotest.(check bool)
        "p50 in [256,512]" true
        (p50 >= 256.0 && p50 <= 512.0);
      Alcotest.(check bool)
        "p99 in [512,1000]" true
        (p99 >= 512.0 && p99 <= 1000.0);
      Alcotest.(check bool) "quantiles monotone" true (p50 <= p99);
      Alcotest.(check bool)
        "p0 clamped near observed min" true
        (Obs.Metrics.percentile h 0.0 >= 1.0
        && Obs.Metrics.percentile h 0.0 <= 2.0);
      (* a degenerate distribution clamps to the exact value *)
      let d = Obs.Metrics.histogram "test.degenerate" in
      for _ = 1 to 10 do
        Obs.Metrics.observe d 42
      done;
      Alcotest.(check (float 0.0))
        "single-valued p50 is exact" 42.0
        (Obs.Metrics.percentile d 0.5);
      Alcotest.(check (float 0.0))
        "single-valued p99 is exact" 42.0
        (Obs.Metrics.percentile d 0.99))

(* Exact percentile values and log-bucket edge behavior.  Bucket b
   holds values in [2^(b-1), 2^b): 7 is the last value of bucket 3,
   8 the first of bucket 4.  The representative value is the geometric
   midpoint 0.75 * 2^b, clamped to the observed [min, max]. *)
let test_histogram_exact () =
  with_tracing (fun () ->
      (* one bucket, midpoint representative: 5,6,7 all in [4,8) *)
      let h = Obs.Metrics.histogram "test.exact_mid" in
      List.iter (Obs.Metrics.observe h) [ 5; 6; 7 ];
      Alcotest.(check (float 0.0))
        "p50 is the bucket midpoint 6" 6.0
        (Obs.Metrics.percentile h 0.5);
      (* bucket-edge pair: 7 -> bucket 3, 8 -> bucket 4; the clamp to
         [min, max] makes both quantiles exact *)
      let e = Obs.Metrics.histogram "test.exact_edge" in
      Obs.Metrics.observe e 7;
      Obs.Metrics.observe e 8;
      Alcotest.(check (float 0.0))
        "p50 clamps up to min 7" 7.0
        (Obs.Metrics.percentile e 0.5);
      Alcotest.(check (float 0.0))
        "p99 clamps down to max 8" 8.0
        (Obs.Metrics.percentile e 0.99);
      (* a power of two lands in the bucket above its exponent *)
      let p = Obs.Metrics.histogram "test.exact_pow2" in
      Obs.Metrics.observe p 4;
      Alcotest.(check (float 0.0))
        "single 2^k value is exact" 4.0
        (Obs.Metrics.percentile p 0.9);
      (* zero has its own bucket and a zero representative *)
      let z = Obs.Metrics.histogram "test.exact_zero" in
      Obs.Metrics.observe z 0;
      Alcotest.(check (float 0.0))
        "all-zero histogram quantile is 0" 0.0
        (Obs.Metrics.percentile z 0.99);
      (* empty histogram: quantile defined as 0 *)
      let n = Obs.Metrics.histogram "test.exact_empty" in
      Alcotest.(check (float 0.0))
        "empty histogram quantile is 0" 0.0
        (Obs.Metrics.percentile n 0.5))

(* Concurrent pool-domain updates must leave the registry exact (no
   lost increments) and the snapshot deterministic once quiescent. *)
let test_metrics_concurrent_snapshot () =
  with_tracing (fun () ->
      let c = Obs.Metrics.counter "test.conc_counter" in
      let h = Obs.Metrics.histogram "test.conc_hist" in
      let n = 400 in
      Pool.iter ~jobs:4
        (fun i ->
          Obs.Metrics.incr c;
          Obs.Metrics.observe h (1 + (i mod 64)))
        (List.init n Fun.id);
      Alcotest.(check int) "no lost counter increments" n
        (Obs.Metrics.counter_value c);
      Alcotest.(check int) "no lost observations" n
        (Obs.Metrics.histogram_count h);
      let s1 = Obs.Metrics.snapshot_json () in
      let s2 = Obs.Metrics.snapshot_json () in
      Alcotest.(check string) "quiescent snapshots identical" s1 s2;
      match Obs.Json.parse s1 with
      | Error m -> Alcotest.failf "snapshot does not parse: %s" m
      | Ok _ -> ())

(* ---- the background sampler ---- *)

let test_sampler_series () =
  let path = Filename.temp_file "bespoke_test_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Sampler.stop ();
      Obs.reset ();
      Obs.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.reset ();
      Obs.Sampler.start ~path ~interval_ms:40 ();
      Alcotest.(check bool) "sampler reports running" true
        (Obs.Sampler.running ());
      Alcotest.(check (option string)) "sampler reports its path" (Some path)
        (Obs.Sampler.path ());
      let c = Obs.Metrics.counter "test.sampler_counter" in
      Obs.Metrics.incr c;
      Unix.sleepf 0.12;
      Obs.Sampler.stop ();
      Alcotest.(check bool) "sampler stopped" false (Obs.Sampler.running ());
      match Stats.load path with
      | Error m -> Alcotest.failf "sampler output invalid: %s" m
      | Ok (Stats.Series series) ->
        Alcotest.(check int) "declared interval" 40 series.Stats.interval_ms;
        Alcotest.(check bool)
          (Printf.sprintf "at least 2 snapshots (got %d)"
             series.Stats.snapshots)
          true (series.Stats.snapshots >= 2);
        Alcotest.(check bool) "series spans real time" true
          (series.Stats.span_us > 0.0)
      | Ok _ -> Alcotest.fail "sampler output read as another kind")

(* ---- bench regression comparison ---- *)

let test_stats_compare () =
  let entry label scale =
    {
      Stats.b_label = label;
      b_metrics =
        [
          ("cps/mult/event", 1000.0 *. scale);
          ("cps/mult/compiled", 5000.0 *. scale);
          ("campaign/jobs_per_sec/warm_jobs4", 80.0);
        ];
    }
  in
  let old_e = entry "old" 1.0 in
  (* self-comparison is clean *)
  let self = Stats.compare_benches ~threshold:0.1 old_e old_e in
  Alcotest.(check int) "self-compare has no regressions" 0
    (List.length self.Stats.regressions);
  Alcotest.(check int) "self-compare covers all metrics" 3
    (List.length self.Stats.deltas);
  (* a uniform 12% throughput drop beyond the 10% threshold *)
  let slow = entry "new" 0.88 in
  let cmp = Stats.compare_benches ~threshold:0.1 old_e slow in
  Alcotest.(check int) "both cps drops flagged" 2
    (List.length cmp.Stats.regressions);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d.Stats.d_metric ^ " ratio below 0.9")
        true (d.Stats.d_ratio < 0.9))
    cmp.Stats.regressions;
  (* the same drop under a looser threshold is not a regression *)
  let loose = Stats.compare_benches ~threshold:0.2 old_e slow in
  Alcotest.(check int) "20%% threshold tolerates a 12%% drop" 0
    (List.length loose.Stats.regressions);
  (* metric-set drift is reported, not silently dropped *)
  let extra =
    { old_e with Stats.b_metrics = ("cps/extra/event", 1.0) :: old_e.b_metrics }
  in
  let drift = Stats.compare_benches ~threshold:0.1 extra slow in
  Alcotest.(check (list string)) "vanished metric listed"
    [ "cps/extra/event" ] drift.Stats.only_old

(* ---- sampler interval edge cases ---- *)

(* Zero or negative intervals would spin the ticker thread; the
   sampler clamps to 1 ms and the header records the clamped value
   (the CLI additionally rejects them with a usage error). *)
let test_sampler_interval_clamp () =
  let probe interval_ms =
    let path = Filename.temp_file "bespoke_test_metrics" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Obs.Sampler.stop ();
        Obs.reset ();
        Obs.disable ();
        if Sys.file_exists path then Sys.remove path)
      (fun () ->
        Obs.reset ();
        Obs.Sampler.start ~path ~interval_ms ();
        Unix.sleepf 0.05;
        Obs.Sampler.stop ();
        match Stats.load path with
        | Error m ->
          Alcotest.failf "sampler output for interval %d invalid: %s"
            interval_ms m
        | Ok (Stats.Series series) ->
          Alcotest.(check int)
            (Printf.sprintf "interval %d clamped to 1 ms in the header"
               interval_ms)
            1 series.Stats.interval_ms;
          Alcotest.(check bool) "clamped sampler still snapshots" true
            (series.Stats.snapshots >= 1)
        | Ok _ -> Alcotest.fail "sampler output read as another kind")
  in
  probe 0;
  probe (-25)

(* ---- metrics from a real tailor run ---- *)

let test_tailor_metrics () =
  with_tracing (fun () ->
      let _bespoke, stats = run_tailor_mult () in
      let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
      Alcotest.(check bool)
        "compiled settles counted" true
        (c "sim.compile.settles" > 0);
      Alcotest.(check bool)
        "compiled analysis cycles counted" true
        (c "sim.compile.cycles" > 0);
      (let n = Obs.Metrics.histogram_count (Obs.Metrics.histogram "sim.eval_ns") in
       Alcotest.(check bool)
         (Printf.sprintf "sim.eval_ns samples every 61st settle (%d of %d)" n
            (c "sim.compile.settles"))
         true
         (n > 0 && n <= c "sim.compile.settles" / 61));
      Alcotest.(check bool) "analysis paths counted" true (c "analysis.paths" > 0);
      Alcotest.(check bool)
        "analysis restores counted" true
        (c "analysis.restores" > 0);
      Alcotest.(check bool)
        "analysis span ends with its allocation" true
        (List.exists
           (fun (e : Obs.Trace.event) ->
             e.name = "analysis.analyze" && e.ph = 'E'
             && List.mem_assoc "alloc_words" e.args)
           (Obs.Trace.events ()));
      Alcotest.(check int) "cut.gates_removed matches Cut.stats"
        stats.Cut.cut_gates (c "cut.gates_removed");
      Alcotest.(check bool)
        "resynth folded constants" true
        (c "resynth.const_folds" > 0);
      (* the snapshot parses and spans the whole flow *)
      match Obs.Json.parse (Obs.Metrics.snapshot_json ()) with
      | Error m -> Alcotest.failf "snapshot does not parse: %s" m
      | Ok j ->
        let section k =
          match Obs.Json.member k j with
          | Some (Obs.Json.Obj fields) -> List.map fst fields
          | _ -> Alcotest.failf "snapshot missing %S object" k
        in
        let names =
          section "counters" @ section "gauges" @ section "histograms"
        in
        Alcotest.(check bool)
          "at least 8 distinct metric names" true
          (List.length (List.sort_uniq String.compare names) >= 8);
        List.iter
          (fun prefix ->
            Alcotest.(check bool)
              (prefix ^ " metrics present") true
              (List.exists
                 (fun n -> String.starts_with ~prefix n)
                 names))
          [ "sim."; "analysis."; "cut."; "resynth." ])

(* ---- disabled-by-default no-op guarantee ---- *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.Metrics.counter "test.noop_counter" in
  let h = Obs.Metrics.histogram "test.noop_hist" in
  let r = Obs.Span.with_ ~name:"ignored" (fun () -> "ok") in
  Obs.Span.instant "ignored too";
  Obs.Metrics.incr c;
  Obs.Metrics.add c 100;
  Obs.Metrics.observe h 7;
  Alcotest.(check string) "span body still runs" "ok" r;
  Alcotest.(check int) "no events recorded" 0
    (List.length (Obs.Trace.events ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h);
  Alcotest.(check string) "jsonl empty" "" (Obs.Trace.to_jsonl ())

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "end emitted on raise" `Quick test_span_end_on_raise;
          Alcotest.test_case "per-domain buffers merge" `Quick
            test_spans_across_domains;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl well-formed and balanced" `Quick
            test_jsonl_wellformed;
          Alcotest.test_case "parked worker span closed as truncated" `Quick
            test_parked_worker_closed;
        ] );
      ( "json",
        List.map QCheck_alcotest.to_alcotest
          [ prop_str_roundtrip; prop_nested_roundtrip; prop_int_exact ]
        @ [
            Alcotest.test_case "non-finite numbers encode as 0" `Quick
              test_num_nonfinite;
            Alcotest.test_case "artifacts valid for adversarial strings" `Quick
              test_artifacts_adversarial;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "exact percentiles and bucket edges" `Quick
            test_histogram_exact;
          Alcotest.test_case "concurrent updates, deterministic snapshot"
            `Quick test_metrics_concurrent_snapshot;
          Alcotest.test_case "tailor run populates registry" `Quick
            test_tailor_metrics;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "time series lifecycle" `Quick test_sampler_series;
          Alcotest.test_case "zero/negative interval clamped" `Quick
            test_sampler_interval_clamp;
        ] );
      ( "stats",
        [
          Alcotest.test_case "bench regression comparison" `Quick
            test_stats_compare;
        ] );
      ( "disabled",
        [ Alcotest.test_case "hooks are no-ops" `Quick test_disabled_noop ] );
    ]
