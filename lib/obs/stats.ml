(* One reader per artifact the flow writes.

   Chrome-trace JSONL ([Obs.Trace]), metrics snapshots and
   bespoke-metrics/v1 series ([Obs.Sampler]), bespoke-campaign/v1 and
   bespoke-guard/v1 streams, bespoke-report/v1, bespoke-analysis/v1 and
   bespoke-verify/v1 artifacts, BENCH_sim.json and bespoke-bench/v1
   history lines: each kind has one reader here, which checks the
   invariants its schema promises (docs/SCHEMAS.md) while it loads the
   file and stops at the first broken one.  [load] works out a file's kind from its header or
   shape; the `stats` subcommand renders what the readers return.
   Parsing uses the in-tree [Obs.Json] reader, so the module stays
   dependency-free. *)

module J = Obs.Json

(* A broken invariant, reported as "FILE: message". *)
exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let get what acc k j =
  match acc k j with Some v -> v | None -> fail "field %S missing or not %s" k what

let mem k j = get "present" J.member k j
let str = get "a string" J.mem_str
let num = get "a number" J.mem_num
let int k j = int_of_float (num k j)
let bool = get "a bool" J.mem_bool
let arr = get "an array" J.mem_arr
let fields = get "an object" J.mem_obj

let schema_is tag j =
  if str "schema" j <> tag then fail "unexpected schema tag %S" (str "schema" j)

let pct f = 100.0 *. f
let last l = List.nth l (List.length l - 1)

(* (key, records, summed value) per distinct key of [records], by key *)
let tally key value records =
  List.map
    (fun k ->
      let rs = List.filter (fun j -> key j = k) records in
      (k, List.length rs, List.fold_left (fun acc j -> acc +. value j) 0.0 rs))
    (List.sort_uniq compare (List.map key records))

(* ------------------------------------------------------------------ *)
(* JSONL streams.  A live stream can end mid-record (crash, kill -9,
   full disk): a malformed line is fatal anywhere except at the very
   end of the file, where it is a truncated tail — skipped with a
   warning so the records written before the cut still aggregate.  A
   truncated stream is not held to what only a finished one can
   promise: a trailing summary, every job recorded, every span
   closed. *)

type stream = { lines : J.t list; truncated : bool }

let jsonl path text =
  let rec go i acc = function
    | [] -> { lines = List.rev acc; truncated = false }
    | l :: rest -> (
      match J.parse l with
      | Ok j -> go (i + 1) (j :: acc) rest
      | Error m when rest = [] ->
        Printf.eprintf "warning: %s: skipping truncated final line (%s)\n%!"
          path m;
        { lines = List.rev acc; truncated = true }
      | Error m -> fail "line %d: %s" i m)
  in
  go 1 [] (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))

(* The header / records / summary shape of campaign and guard streams:
   the summary is the last line, and only a truncated stream may lack
   it. *)
let sections schema s =
  match s.lines with
  | [] -> fail "empty stream"
  | header :: rest -> (
    schema_is schema header;
    match List.rev rest with
    | last :: r when J.mem_bool "summary" last = Some true ->
      (header, List.rev r, Some last)
    | _ when s.truncated -> (header, rest, None)
    | _ -> fail "last line is not the summary")

(* ------------------------------------------------------------------ *)
(* Trace aggregation: per-span counts, cumulative and self time.  Self
   time is a span's duration minus the durations of its directly
   nested children, reconstructed from the B/E bracketing per track
   (tid).  This is what "where did the wall clock actually go" means
   when spans nest: summing totals alone double-counts parents. *)

type span_stat = {
  span_name : string;
  count : int;
  total_us : float;
  self_us : float;
}

type frame = { f_name : string; f_start : float; mutable f_child : float }

let spans_of_events (evs : Obs.Trace.event list) =
  let table : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let record name dur self =
    let c, t, s = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt table name) in
    Hashtbl.replace table name (c + 1, t +. dur, s +. self)
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let s = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.tid ({ f_name = e.name; f_start = e.ts_us; f_child = 0.0 } :: s)
      | 'E' -> (
        match s with
        | [] -> ()  (* unmatched E: tolerate truncated traces *)
        | fr :: rest ->
          Hashtbl.replace stacks e.tid rest;
          let dur = Float.max 0.0 (e.ts_us -. fr.f_start) in
          record fr.f_name dur (Float.max 0.0 (dur -. fr.f_child));
          (match rest with
          | parent :: _ -> parent.f_child <- parent.f_child +. dur
          | [] -> ()))
      | _ -> ()  (* instants and metadata are not span boundaries *))
    evs;
  let stats =
    Hashtbl.fold
      (fun name (count, total_us, self_us) acc ->
        { span_name = name; count; total_us; self_us } :: acc)
      table []
  in
  List.sort
    (fun a b -> compare (b.self_us, b.span_name) (a.self_us, a.span_name))
    stats

(* B/E balance per tid in LIFO order is not negotiable: an exporter
   that leaves a span open must close it itself (as truncated). *)
let trace s =
  if s.lines = [] then fail "empty trace";
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let metadata = ref 0 in
  let events =
    List.filter_map
      (fun j ->
        let tid = int "tid" j and name = str "name" j and ts = num "ts" j in
        if ts < 0.0 then fail "negative timestamp on %S" name;
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        let ev ph = Some { Obs.Trace.name; ph; ts_us = ts; tid; args = [] } in
        match str "ph" j with
        | "B" ->
          Hashtbl.replace stacks tid (name :: stack);
          ev 'B'
        | "E" -> (
          match stack with
          | top :: rest ->
            if top <> name then fail "E %S does not close innermost B %S" name top;
            Hashtbl.replace stacks tid rest;
            ev 'E'
          | [] -> fail "E %S with no open span" name)
        | "i" -> None
        | "M" ->
          if name <> "process_name" && name <> "thread_name" then
            fail "unknown metadata event %S" name;
          incr metadata;
          None
        | ph -> fail "unexpected ph %S" ph)
      s.lines
  in
  if not s.truncated then
    Hashtbl.iter
      (fun tid stack ->
        if stack <> [] then
          fail "tid %d ends with %d unclosed spans" tid (List.length stack))
      stacks;
  if !metadata = 0 then
    fail "no M-phase track metadata — Perfetto tracks would be unnamed";
  spans_of_events events

let render_spans ?(top = 15) (stats : span_stat list) =
  let b = Buffer.create 512 in
  let total_self = List.fold_left (fun acc s -> acc +. s.self_us) 0.0 stats in
  Printf.bprintf b "%-32s %8s %12s %12s %6s\n" "span" "count" "total_ms" "self_ms" "self%";
  let shown = List.filteri (fun i _ -> i < top) stats in
  List.iter
    (fun s ->
      Printf.bprintf b "%-32s %8d %12.3f %12.3f %5.1f%%\n" s.span_name s.count
        (s.total_us /. 1e3) (s.self_us /. 1e3)
        (if total_self > 0.0 then pct (s.self_us /. total_self) else 0.0))
    shown;
  let rest = List.length stats - List.length shown in
  if rest > 0 then Printf.bprintf b "... and %d more span name(s)\n" rest;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Metrics: one snapshot (--metrics-out), or a bespoke-metrics/v1
   series (header, then one snapshot per sampler tick). *)

(* A snapshot carries the whole registry: every histogram has its
   percentiles, and a registry of fewer than 8 names is not one. *)
let registry_names m =
  List.sort_uniq String.compare
    (List.concat_map (fun k -> List.map fst (fields k m)) [ "counters"; "gauges"; "histograms" ])

let snapshot m =
  let names = registry_names m in
  if List.length names < 8 then
    fail "only %d distinct metric names (want >= 8): %s" (List.length names)
      (String.concat ", " names);
  List.iter
    (fun (hname, h) ->
      List.iter
        (fun k -> if J.mem_num k h = None then fail "histogram %S lacks %S" hname k)
        [ "count"; "p50"; "p90"; "p99" ])
    (fields "histograms" m);
  m

type series = {
  interval_ms : int;
  snapshots : int;
  span_us : float;  (* ts of last snapshot - ts of first *)
  last : J.t;  (* the last snapshot's metrics object *)
}

(* The sampler snapshots once in [start] and once in [stop], so a
   finished series has at least two. *)
let series s =
  match s.lines with
  | [] -> fail "empty metrics series"
  | header :: snaps ->
    schema_is Obs.Sampler.schema header;
    let interval_ms = int "interval_ms" header in
    if interval_ms <= 0 then fail "interval_ms <= 0";
    let n = List.length snaps in
    if n < (if s.truncated then 1 else 2) then
      fail "only %d snapshot(s), want >= 2" n;
    let _, ts_last =
      List.fold_left
        (fun (prev_seq, prev_ts) s ->
          let seq = int "seq" s and ts = num "ts_us" s in
          if seq <> prev_seq + 1 then fail "snapshot seq %d after %d" seq prev_seq;
          if ts < prev_ts then fail "ts_us goes backwards";
          ignore (fields "metrics" s);
          (seq, ts))
        (-1, 0.0) snaps
    in
    let m = mem "metrics" (last snaps) in
    if fields "histograms" m = [] then fail "histograms section is empty";
    { interval_ms; snapshots = n; span_us = ts_last -. num "ts_us" (List.hd snaps); last = snapshot m }

let render_registry b m =
  let section title row =
    match J.member title m with
    | Some (J.Obj kvs) when kvs <> [] ->
      Buffer.add_string b (title ^ ":\n");
      List.iter row kvs
    | _ -> ()
  in
  let number fmt (k, v) =
    match v with J.Num f -> Printf.bprintf b fmt k f | _ -> ()
  in
  section "counters" (number "  %-40s %12.0f\n");
  section "gauges" (number "  %-40s %12.2f\n");
  match J.member "histograms" m with
  | Some (J.Obj kvs) when kvs <> [] ->
    Printf.bprintf b "histograms:\n  %-38s %8s %10s %10s %10s\n" "" "count"
      "p50" "p90" "p99";
    List.iter
      (fun (k, v) ->
        let f name = Option.value ~default:0.0 (J.mem_num name v) in
        Printf.bprintf b "  %-38s %8.0f %10.1f %10.1f %10.1f\n" k (f "count")
          (f "p50") (f "p90") (f "p99"))
      kvs
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Campaign streams (bespoke-campaign/v1), heartbeats included. *)

type campaign_stat = {
  c_total : int;
  c_ok : int;
  c_failed : int;
  c_cached : int;
  c_wall_s : float;
  c_heartbeats : int;
  c_kinds : (string * int * float) list;  (* kind, records, cumulative s *)
}

let job_kinds = [ "analyze"; "tailor"; "report"; "verify"; "run"; "guard" ]

(* records stream in completion order, so the job index is not the
   record position — each index must simply appear exactly once *)
let check_job total i j =
  let idx = int "job" j in
  if idx < 0 || idx >= total then
    fail "record %d carries job index %d outside [0, %d)" i idx total;
  if not (List.mem (str "kind" j) job_kinds) then
    fail "record %d: unknown kind %S" i (str "kind" j);
  if str "bench" j = "" then fail "record %d: empty bench name" i;
  if num "time_s" j < 0.0 then fail "record %d: negative time_s" i;
  ignore (bool "cached" j);
  (match str "status" j with
  | "ok" -> (
    match mem "payload" j with
    | J.Obj [] -> fail "record %d: ok with an empty payload" i
    | J.Obj _ -> ()
    | _ -> fail "record %d: payload is not an object" i)
  | "error" ->
    if str "error" j = "" then fail "record %d: error record with no message" i
  | s -> fail "record %d: status %S is neither ok nor error" i s);
  idx

(* heartbeats (from --progress): strictly increasing seq, sane rates,
   and a finished stream's last one reports the whole campaign done *)
let check_heartbeats ~total ~finished hs =
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
  | last :: _ when finished && int "done" last <> total ->
    fail "final heartbeat done %d <> total %d" (int "done" last) total
  | _ -> ()

let campaign s =
  let header, body, summary = sections "bespoke-campaign/v1" s in
  let total = int "total_jobs" header in
  if num "jobs" header < 1.0 then fail "header jobs < 1";
  let heartbeats, records =
    List.partition (fun j -> J.mem_bool "heartbeat" j = Some true) body
  in
  let indices = List.mapi (check_job total) records in
  let count status = List.length (List.filter (fun j -> str "status" j = status) records) in
  let ok = count "ok" and failed = count "error" in
  check_heartbeats ~total ~finished:(summary <> None) heartbeats;
  let wall_s =
    match summary with
    | None -> 0.0
    | Some sm ->
      if List.length records <> total then
        fail "header promises %d jobs, stream carries %d records" total
          (List.length records);
      if List.sort compare indices <> List.init total Fun.id then
        fail "job indices are not a permutation of 0..%d" (total - 1);
      if ok < 1 then fail "no job succeeded";
      if int "total" sm <> total then
        fail "summary total %g disagrees with header %d" (num "total" sm) total;
      if int "ok" sm <> ok then
        fail "summary ok %g disagrees with the stream (%d)" (num "ok" sm) ok;
      if int "failed" sm <> failed then
        fail "summary failed %g disagrees with the stream (%d)"
          (num "failed" sm) failed;
      if num "wall_s" sm < 0.0 then fail "summary wall_s negative";
      num "wall_s" sm
  in
  {
    c_total = (if summary = None then ok + failed else total);
    c_ok = ok;
    c_failed = failed;
    c_cached = List.length (List.filter (bool "cached") records);
    c_wall_s = wall_s;
    c_heartbeats = List.length heartbeats;
    c_kinds = tally (str "kind") (num "time_s") records;
  }

let render_campaign b (c : campaign_stat) =
  Printf.bprintf b
    "%d job(s): %d ok, %d failed, %d cache hit(s), %.3f s wall, %d \
     heartbeat(s)\n"
    c.c_total c.c_ok c.c_failed c.c_cached c.c_wall_s c.c_heartbeats;
  if c.c_wall_s > 0.0 then
    Printf.bprintf b "throughput: %.1f jobs/s\n"
      (float_of_int c.c_total /. c.c_wall_s);
  if c.c_kinds <> [] then begin
    Printf.bprintf b "%-10s %8s %12s\n" "kind" "jobs" "cpu_s";
    List.iter
      (fun (k, n, t) -> Printf.bprintf b "%-10s %8d %12.3f\n" k n t)
      c.c_kinds
  end

(* ------------------------------------------------------------------ *)
(* Guard streams (bespoke-guard/v1): one header describing the plan's
   monitor coverage, one record per violating gate (carrying the
   cut-reason provenance), one trailing summary. *)

type guard_stat = {
  g_header : J.t;
  g_cycles : int;
  g_violations : int;
  g_violating_gates : int;
  g_clean : bool;
  g_reasons : (string * int) list;
}

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let guard s =
  let h, records, summary = sections "bespoke-guard/v1" s in
  ignore (str "core" h);
  if str "design" h = "" then fail "empty design name";
  if str "workload" h = "" then fail "empty workload name";
  let mode = str "mode" h in
  if not (List.mem mode [ "hw"; "shadow"; "original" ]) then
    fail "unknown mode %S" mode;
  let assumptions = int "assumptions" h
  and monitors = int "monitors" h
  and implied = int "implied" h
  and unmonitorable = int "unmonitorable" h in
  if monitors < 1 then fail "no monitors in the plan";
  if monitors + implied + unmonitorable <> assumptions then
    fail "coverage split %d + %d + %d <> %d assumption(s)" monitors implied
      unmonitorable assumptions;
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
    records;
  let gates = List.length records in
  let cycles, violations, clean =
    match summary with
    | None -> (0, gates, gates = 0)  (* the records give a lower bound *)
    | Some sm ->
      if int "cycles" sm < 1 then fail "summary checked no cycles";
      let total = int "violations" sm in
      if int "violating_gates" sm <> gates then
        fail "summary names %d violating gate(s), stream carries %d record(s)"
          (int "violating_gates" sm) gates;
      if total < gates then
        fail "summary violations %d below its %d violating gate(s)" total gates;
      if bool "clean" sm <> (total = 0) then
        fail "summary clean flag disagrees with %d violation(s)" total;
      (int "cycles" sm, total, total = 0)
  in
  {
    g_header = h;
    g_cycles = cycles;
    g_violations = violations;
    g_violating_gates = gates;
    g_clean = clean;
    g_reasons =
      List.map (fun (r, n, _) -> (r, n)) (tally (str "reason") (fun _ -> 0.0) records);
  }

let render_guard b (g : guard_stat) =
  let h = g.g_header in
  Printf.bprintf b
    "workload %s on the %s design (%s mode): %d assumption(s) = %d \
     monitor(s) + %d implied + %d unmonitorable\n"
    (str "workload" h) (str "design" h) (str "mode" h) (int "assumptions" h)
    (int "monitors" h) (int "implied" h) (int "unmonitorable" h);
  Printf.bprintf b "%d cycle(s) checked: %s (%d violation(s) on %d gate(s))\n"
    g.g_cycles
    (if g.g_clean then "CLEAN" else "VIOLATED")
    g.g_violations g.g_violating_gates;
  if g.g_reasons <> [] then begin
    Printf.bprintf b "%-16s %8s\n" "cut reason" "gates";
    List.iter (fun (r, n) -> Printf.bprintf b "%-16s %8d\n" r n) g.g_reasons
  end

(* ------------------------------------------------------------------ *)
(* bespoke-report/v1: savings columns whose arithmetic must close. *)

let close a b = Float.abs (a -. b) <= 0.05 +. (1e-4 *. Float.abs b)

let check_savings name what j =
  let original = num "original" j and bespoke = num "bespoke" j in
  if original <= 0.0 then fail "%s: %s.original is not positive" name what;
  if bespoke < 0.0 || bespoke > original then
    fail "%s: %s.bespoke %g outside [0, original %g]" name what bespoke original;
  let expect = 100.0 *. (1.0 -. (bespoke /. original)) in
  let got = num "saved_pct" j in
  if not (close got expect) then
    fail "%s: %s.saved_pct %g does not match original/bespoke (%g)" name what
      got expect;
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
  if total <> go then
    fail "%s: cut reasons sum to %g, design has %g gates" name total go;
  if count "kept" +. count "downsized" <> gb then
    fail "%s: kept + downsized does not equal the bespoke gate count" name;
  if count "never-toggled" <> cut then
    fail "%s: never-toggled %g does not match gates.cut %g" name
      (count "never-toggled") cut;
  (* the (total) attribution row agrees with the top-level numbers *)
  match List.find_opt (fun m -> str "module" m = "(total)") (arr "modules" b) with
  | None -> fail "%s: no (total) attribution row" name
  | Some t ->
    List.iter
      (fun (field, v, eq) ->
        if not (eq (num field t) v) then
          fail "%s: attribution %s %g != %g" name field (num field t) v)
      [ ("gates_original", go, ( = )); ("gates_bespoke", gb, ( = ));
        ("area_original_um2", ao, close) ]

(* report and verify artifacts name their generator and list at least
   one benchmark row *)
let rows j =
  ignore (str "generator" j);
  match arr "benchmarks" j with [] -> fail "lists no benchmarks" | rows -> rows

let report j =
  let rows = rows j in
  List.iter check_report_bench rows;
  rows

let render_report b benches =
  Printf.bprintf b "%d benchmark(s)\n%-16s %8s %8s %7s %7s %7s\n"
    (List.length benches) "benchmark" "gates" "bespoke" "gates%" "area%" "leak%";
  List.iter
    (fun r ->
      let saved k = num "saved_pct" (mem k r) in
      Printf.bprintf b "%-16s %8.0f %8.0f %6.1f%% %6.1f%% %6.1f%%\n" (str "name" r)
        (num "original" (mem "gates" r)) (num "bespoke" (mem "gates" r))
        (saved "gates") (saved "area_um2") (saved "leakage_nw"))
    benches

(* ------------------------------------------------------------------ *)
(* bespoke-analysis/v1: the exploration counts of one analysis and the
   exercisable share of each module. *)

let analysis j =
  ignore (str "generator" j);
  let name = str "benchmark" j in
  let a = mem "analysis" j in
  List.iter
    (fun k -> if num k a < 0.0 then fail "%s: analysis.%s is negative" name k)
    [ "paths"; "merges"; "prunes"; "escapes"; "cycles" ];
  List.iter
    (fun m ->
      let total = num "total" m and ex = num "exercisable" m in
      if ex < 0.0 || ex > total then
        fail "%s: module %s has %g exercisable of %g gates" name (str "module" m)
          ex total)
    (arr "modules" j);
  j

let render_analysis b j =
  let a = mem "analysis" j in
  Printf.bprintf b
    "%s: %.0f paths (%.0f merges, %.0f prunes, %.0f escapes), %.0f cycles\n"
    (str "benchmark" j) (num "paths" a) (num "merges" a) (num "prunes" a)
    (num "escapes" a) (num "cycles" a);
  Printf.bprintf b "%-24s %11s %8s\n" "module" "exercisable" "total";
  List.iter
    (fun m ->
      Printf.bprintf b "%-24s %11.0f %8.0f\n" (str "module" m)
        (num "exercisable" m) (num "total" m))
    (arr "modules" j)

(* ------------------------------------------------------------------ *)
(* bespoke-verify/v1: every layer agrees, and every detectable fault
   is killed. *)

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
    (fun k -> if num k inputs < 0.0 || num k inputs > 100.0 then
        fail "%s: %s %g outside [0, 100]" name k (num k inputs))
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
  let agrees field p =
    if float_of_int (List.length (List.filter p kills)) <> num field fi then
      fail "%s: %s disagrees with the fault list" name field
  in
  agrees "killed_input" (fun (k, _) -> k = "input");
  agrees "killed_symbolic" (fun (k, _) -> k = "symbolic");
  agrees "detectable" snd;
  agrees "detectable_killed" (fun (k, d) -> d && k <> "survived");
  if injected > 0.0 && num "detectable" fi < 1.0 then
    fail "%s: campaign drew no detectable fault" name;
  (* the acceptance bar: every detectable fault killed *)
  if num "detectable_score_pct" fi <> 100.0 then
    fail "%s: detectable kill score %g, want 100" name
      (num "detectable_score_pct" fi)

let verify j =
  let core = str "core" j and rows = rows j in
  List.iter (check_verify_bench ~core) rows;
  (core, rows)

let render_verify b (core, benches) =
  Printf.bprintf b "%d benchmark(s) on core %s\n%-16s %-10s %6s %6s %6s %7s %7s\n"
    (List.length benches) core "benchmark" "verdict" "paths" "inputs" "gate%"
    "faults" "killed";
  List.iter
    (fun r ->
      let fi = mem "fault_injection" r in
      let inputs k = num k (mem "inputs" r) in
      Printf.bprintf b "%-16s %-10s %6.0f %6.0f %5.1f%% %7.0f %7.0f\n" (str "name" r)
        (str "verdict" r) (num "paths" (mem "symbolic" r)) (inputs "count")
        (inputs "gate_pct") (num "injected" fi)
        (num "killed_input" fi +. num "killed_symbolic" fi))
    benches

(* ------------------------------------------------------------------ *)
(* Bench artifacts and regression comparison.

   A bench entry is a flat (metric -> value) map where every metric is
   throughput-like (higher is better): cps/<core>/<bench>/<engine>
   from the per-benchmark rows (the core segment is dropped for rows
   that predate the core field, keeping old artifacts comparable) and
   campaign/jobs_per_sec/<mode> from the campaign block.  Sources:
   BENCH_sim.json (one pretty-printed JSON value, held to its
   acceptance bars) or BENCH_history.jsonl (schema bespoke-bench/v1:
   the same value nested under "bench" with a timestamp and label;
   lines written before the event engine was retired carry an `event`
   column, so history lines are not held to today's bars). *)

let history_schema = "bespoke-bench/v1"

type bench_entry = { b_label : string; b_metrics : (string * float) list }

let entry_of_json ~label j : bench_entry =
  let metrics = ref [] in
  let add name = function
    | J.Num f -> metrics := (name, f) :: !metrics
    | _ -> ()
  in
  List.iter
    (fun row ->
      match (J.mem_str "name" row, J.mem_obj "cycles_per_sec" row) with
      | Some name, Some engines ->
        let name = Option.fold ~none:name ~some:(fun core -> core ^ "/" ^ name) (J.mem_str "core" row) in
        List.iter
          (fun (engine, v) -> add (Printf.sprintf "cps/%s/%s" name engine) v)
          engines
      | _ -> ())
    (Option.value ~default:[] (J.mem_arr "benchmarks" j));
  (match J.member "campaign" j with
  | Some c ->
    List.iter
      (fun (mode, v) -> add ("campaign/jobs_per_sec/" ^ mode) v)
      (Option.value ~default:[] (J.mem_obj "jobs_per_sec" c))
  | None -> ());
  { b_label = label; b_metrics = List.sort compare !metrics }

(* The recorded engine-throughput artifact the docs quote, gated on its
   acceptance bars: every benchmark row carries exactly the
   full/packed/compiled columns and the compiled engine is never slower
   than the full sweep; the telemetry overhead is one compiled-engine
   row; a cold campaign beats one-shot runs 2.5x and a warm one beats
   cold 5x; the guard watcher checks at least one monitor and costs at
   most 25 % of plain throughput.  Regenerate the artifact with
   bench/main.exe --bench-sim. *)
let max_guard_watch_slowdown = 0.25

let bench_sim j =
  let rows = arr "benchmarks" j in
  if rows = [] then fail "no benchmark rows";
  List.iter
    (fun row ->
      let name = str "core" row ^ "/" ^ str "name" row in
      let cps = mem "cycles_per_sec" row in
      let keys = List.map fst (fields "cycles_per_sec" row) in
      if keys <> [ "full"; "packed"; "compiled" ] then
        fail "%s: cycles_per_sec keys are [%s], want full/packed/compiled" name
          (String.concat "; " keys);
      let full = num "full" cps and compiled = num "compiled" cps in
      if compiled < full then
        fail "%s: compiled %.0f < full %.0f cycles/sec (compiled engine \
              regression)"
          name compiled full)
    rows;
  if List.filter_map (J.mem_str "engine") (arr "obs_overhead" j) <> [ "compiled" ]
  then fail "obs_overhead must hold one compiled-engine row";
  let campaign = mem "campaign" j in
  let cold = num "speedup_cold_jobs4_vs_oneshot" campaign
  and warm = num "speedup_warm_vs_cold" campaign in
  if cold < 2.5 then
    fail "campaign cold speedup %.2fx < 2.5x one-shot (campaign throughput \
          regression)"
      cold;
  if warm < 5.0 then
    fail "campaign warm-cache speedup %.2fx < 5x cold (flow cache regression)"
      warm;
  let guard = mem "guard_overhead" j in
  if int "monitors" guard < 1 then
    fail "guard_overhead records no monitors: the shadow watcher measured \
          nothing";
  let slowdown = num "watch_slowdown" guard in
  if slowdown > max_guard_watch_slowdown then
    fail "guard_overhead watch_slowdown %.3f > %.2f (shadow watcher \
          regression)"
      slowdown max_guard_watch_slowdown;
  j

let render_bench_sim b j =
  let campaign = mem "campaign" j and guard = mem "guard_overhead" j in
  Printf.bprintf b
    "%d benchmarks, compiled >= full on all; campaign %.2fx vs one-shot cold, \
     %.1fx warm vs cold; guard watcher over %d monitor(s) costs %.1f%% of \
     plain throughput\n"
    (List.length (arr "benchmarks" j))
    (num "speedup_cold_jobs4_vs_oneshot" campaign)
    (num "speedup_warm_vs_cold" campaign)
    (int "monitors" guard)
    (pct (num "watch_slowdown" guard))

let history s =
  List.mapi
    (fun i j ->
      schema_is history_schema j;
      ignore (num "unix_time" j);
      let e = entry_of_json ~label:(str "label" j) (mem "bench" j) in
      if e.b_metrics = [] then fail "line %d: no bench metrics" (i + 1);
      e)
    s.lines

(* ------------------------------------------------------------------ *)
(* Every kind, worked out from the file. *)

type artifact =
  | Trace of span_stat list
  | Snapshot of J.t
  | Series of series
  | Campaign of campaign_stat
  | Guard of guard_stat
  | Report of J.t list
  | Analysis of J.t
  | Verify of (string * J.t list)
  | Bench_sim of J.t
  | History of bench_entry list

let checked name f =
  match f () with v -> Ok v | exception Invalid m -> Error (name ^ ": " ^ m)

let from_file read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> read ~name:path text
  | exception Sys_error m -> Error m

(* Text that is one JSON value is a report, a verify artifact, a
   metrics snapshot or BENCH_sim.json; anything else is a JSONL stream,
   named by the schema tag of its first line (a Chrome trace has
   none). *)
let read ~name text =
  checked name @@ fun () ->
  let stream () =
    let s = jsonl name text in
    match s.lines with
    | [] -> fail "empty file"
    | first :: _ -> (
      match J.mem_str "schema" first with
      | Some "bespoke-campaign/v1" -> Campaign (campaign s)
      | Some "bespoke-guard/v1" -> Guard (guard s)
      | Some t when t = Obs.Sampler.schema -> Series (series s)
      | Some t when t = history_schema -> History (history s)
      | Some t -> fail "unexpected schema tag %S" t
      | None when J.member "ph" first <> None -> Trace (trace s)
      | None -> fail "no schema tag, and not a Chrome trace")
  in
  match J.parse text with
  | Ok j -> (
    match J.mem_str "schema" j with
    | Some "bespoke-report/v1" -> Report (report j)
    | Some "bespoke-analysis/v1" -> Analysis (analysis j)
    | Some "bespoke-verify/v1" -> Verify (verify j)
    | None when J.member "counters" j <> None -> Snapshot (snapshot j)
    | None when J.member "benchmarks" j <> None -> Bench_sim (bench_sim j)
    | _ -> stream ())
  | Error _ -> stream ()

let load = from_file read
let load_trace = from_file (fun ~name text -> checked name (fun () -> trace (jsonl name text)))

let render ?top path a =
  let b = Buffer.create 512 in
  let head kind = Printf.bprintf b "%s (%s): " kind path in
  (match a with
  | Trace spans -> Printf.bprintf b "spans (%s):\n%s" path (render_spans ?top spans)
  | Snapshot m ->
    head "metrics snapshot";
    Printf.bprintf b "%d metric(s)\n" (List.length (registry_names m));
    render_registry b m
  | Series s ->
    head "metrics";
    Printf.bprintf b "%d snapshot(s) over %.1f ms (interval %d ms)\n" s.snapshots
      (s.span_us /. 1e3) s.interval_ms;
    render_registry b s.last
  | Campaign c -> head "campaign"; render_campaign b c
  | Guard g -> head "guard"; render_guard b g
  | Report rows -> head "report"; render_report b rows
  | Analysis j -> head "analysis"; render_analysis b j
  | Verify v -> head "verify"; render_verify b v
  | Bench_sim j -> head "bench"; render_bench_sim b j
  | History es ->
    head "bench history";
    Printf.bprintf b "%d entries, last %s\n" (List.length es) (last es).b_label);
  Buffer.contents b

let load_bench path =
  match load path with
  | Ok (Bench_sim j) -> Ok (entry_of_json ~label:path j)
  | Ok (History es) -> Ok (last es)
  | Ok _ -> Error (path ^ ": not a bench artifact")
  | Error m -> Error m

type delta = {
  d_metric : string;
  d_old : float;
  d_new : float;
  d_ratio : float;  (* new / old; < 1 is a slowdown *)
}

type comparison = {
  deltas : delta list;  (* every metric present in both entries *)
  regressions : delta list;  (* ratio below 1 - threshold *)
  only_old : string list;
  only_new : string list;
}

let compare_benches ~threshold (old_e : bench_entry) (new_e : bench_entry) =
  let deltas = ref [] and only_old = ref [] and only_new = ref [] in
  List.iter
    (fun (m, ov) ->
      match List.assoc_opt m new_e.b_metrics with
      | None -> only_old := m :: !only_old
      | Some nv ->
        let ratio = if ov > 0.0 then nv /. ov else 1.0 in
        deltas := { d_metric = m; d_old = ov; d_new = nv; d_ratio = ratio }
                  :: !deltas)
    old_e.b_metrics;
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m old_e.b_metrics) then only_new := m :: !only_new)
    new_e.b_metrics;
  let deltas = List.sort (fun a b -> compare a.d_ratio b.d_ratio) !deltas in
  {
    deltas;
    regressions =
      List.filter (fun d -> d.d_ratio < 1.0 -. threshold) deltas;
    only_old = List.rev !only_old;
    only_new = List.rev !only_new;
  }

let render_compare ~threshold (old_e : bench_entry) (new_e : bench_entry)
    (c : comparison) =
  let b = Buffer.create 512 in
  Printf.bprintf b "old: %s\nnew: %s\n%d metric(s) compared, threshold %.0f%%\n"
    old_e.b_label new_e.b_label (List.length c.deltas) (pct threshold);
  let row d =
    Printf.bprintf b "  %-34s %12.1f %12.1f %+7.1f%%\n" d.d_metric d.d_old
      d.d_new
      (pct (d.d_ratio -. 1.0))
  in
  if c.regressions <> [] then begin
    Printf.bprintf b "REGRESSIONS (%d):\n" (List.length c.regressions);
    List.iter row c.regressions
  end
  else Buffer.add_string b "no regressions\n";
  (* the biggest movers either way, for context *)
  let interesting =
    List.filter (fun d -> Float.abs (d.d_ratio -. 1.0) >= 0.02) c.deltas
  in
  let shown = List.filteri (fun i _ -> i < 10) interesting in
  if shown <> [] && c.regressions = [] then begin
    Buffer.add_string b "largest deltas:\n";
    List.iter row shown
  end;
  if c.only_old <> [] then
    Printf.bprintf b "only in old: %s\n" (String.concat ", " c.only_old);
  if c.only_new <> [] then
    Printf.bprintf b "only in new: %s\n" (String.concat ", " c.only_new);
  Buffer.contents b
