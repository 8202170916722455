(* Offline aggregation of flow telemetry artifacts.

   Everything here reads the files the live side writes — Chrome-trace
   JSONL ([Obs.Trace]), bespoke-metrics/v1 time series
   ([Obs.Sampler]), bespoke-campaign/v1 streams — plus bench artifacts
   (BENCH_sim.json / BENCH_history.jsonl lines), and turns them into
   tables and regression verdicts for the `stats` subcommand.  Parsing
   uses the in-tree [Obs.Json] reader, so the module stays
   dependency-free. *)

module J = Obs.Json

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l -> go (if String.trim l = "" then acc else l :: acc)
  in
  go []

(* A live JSONL stream can end mid-record (crash, kill -9, full disk):
   a malformed line is fatal anywhere except at the very end of the
   file, where it is a truncated tail — skipped with a warning so the
   records written before the cut still aggregate. *)
let skip_truncated path m =
  Printf.eprintf "warning: %s: skipping truncated final line (%s)\n%!" path m

let mem_num = J.mem_num
let mem_str = J.mem_str
let mem_bool = J.mem_bool

let pct f = 100.0 *. f

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
  let table : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let record name dur self =
    let c, t, s =
      match Hashtbl.find_opt table name with
      | Some e -> e
      | None ->
        let e = (ref 0, ref 0.0, ref 0.0) in
        Hashtbl.add table name e;
        e
    in
    incr c;
    t := !t +. dur;
    s := !s +. self
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let s = stack e.tid in
      match e.ph with
      | 'B' -> s := { f_name = e.name; f_start = e.ts_us; f_child = 0.0 } :: !s
      | 'E' -> (
        match !s with
        | [] -> ()  (* unmatched E: tolerate truncated traces *)
        | fr :: rest ->
          s := rest;
          let dur = Float.max 0.0 (e.ts_us -. fr.f_start) in
          record fr.f_name dur (Float.max 0.0 (dur -. fr.f_child));
          (match rest with
          | parent :: _ -> parent.f_child <- parent.f_child +. dur
          | [] -> ()))
      | _ -> ()  (* instants and metadata are not span boundaries *))
    evs;
  let stats =
    Hashtbl.fold
      (fun name (c, t, s) acc ->
        { span_name = name; count = !c; total_us = !t; self_us = !s } :: acc)
      table []
  in
  List.sort
    (fun a b -> compare (b.self_us, b.span_name) (a.self_us, a.span_name))
    stats

let load_trace path : (span_stat list, string) result =
  match read_lines path with
  | exception Sys_error m -> Error m
  | lines ->
    let last = List.length lines - 1 in
    let rec go i acc = function
      | [] -> Ok (spans_of_events (List.rev acc))
      | line :: rest -> (
        match J.parse line with
        | Error m when i = last ->
          skip_truncated path m;
          go (i + 1) acc rest
        | Error m -> Error (Printf.sprintf "line %d: %s" (i + 1) m)
        | Ok j ->
          let tid =
            match mem_num "tid" j with Some f -> int_of_float f | None -> 0
          in
          let ev ph name ts_us =
            { Obs.Trace.name; ph; ts_us; tid; args = [] }
          in
          let acc =
            match (mem_str "ph" j, mem_str "name" j, mem_num "ts" j) with
            | Some "B", Some name, Some ts -> ev 'B' name ts :: acc
            | Some "E", name, Some ts ->
              ev 'E' (Option.value name ~default:"") ts :: acc
            | _ -> acc  (* i/M/malformed: not a span boundary *)
          in
          go (i + 1) acc rest)
    in
    go 0 [] lines

let render_spans ?(top = 15) (stats : span_stat list) =
  let b = Buffer.create 512 in
  let total_self =
    List.fold_left (fun acc s -> acc +. s.self_us) 0.0 stats
  in
  Buffer.add_string b
    (Printf.sprintf "%-32s %8s %12s %12s %6s\n" "span" "count" "total_ms"
       "self_ms" "self%");
  let shown = List.filteri (fun i _ -> i < top) stats in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%-32s %8d %12.3f %12.3f %5.1f%%\n" s.span_name s.count
           (s.total_us /. 1e3) (s.self_us /. 1e3)
           (if total_self > 0.0 then pct (s.self_us /. total_self) else 0.0)))
    shown;
  let rest = List.length stats - List.length shown in
  if rest > 0 then
    Buffer.add_string b (Printf.sprintf "... and %d more span name(s)\n" rest);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Metrics time series (bespoke-metrics/v1). *)

type series = {
  interval_ms : int;
  snapshots : int;
  span_us : float;  (* ts of last snapshot - ts of first *)
  last : J.t;  (* the last snapshot's metrics object *)
}

let load_metrics path : (series, string) result =
  match read_lines path with
  | exception Sys_error m -> Error m
  | [] -> Error (path ^ ": empty metrics series")
  | header :: rest -> (
    match J.parse header with
    | Error m -> Error ("header: " ^ m)
    | Ok h -> (
      match mem_str "schema" h with
      | Some s when s = Obs.Sampler.schema -> (
        let interval_ms =
          match mem_num "interval_ms" h with
          | Some f -> int_of_float f
          | None -> 0
        in
        let parse_snap i line =
          match J.parse line with
          | Error m -> Error (Printf.sprintf "snapshot %d: %s" i m)
          | Ok j -> (
            match (mem_num "ts_us" j, J.member "metrics" j) with
            | Some ts, Some m -> Ok (ts, m)
            | _ ->
              Error (Printf.sprintf "snapshot %d: missing ts_us/metrics" i))
        in
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | l :: tl -> (
            match parse_snap i l with
            | Error m when tl = [] ->
              skip_truncated path m;
              Ok (List.rev acc)
            | Error m -> Error m
            | Ok s -> go (i + 1) (s :: acc) tl)
        in
        match go 0 [] rest with
        | Error m -> Error m
        | Ok [] -> Error (path ^ ": no snapshots")
        | Ok ((t0, _) :: _ as snaps) ->
          let tn, last = List.nth snaps (List.length snaps - 1) in
          Ok
            {
              interval_ms;
              snapshots = List.length snaps;
              span_us = tn -. t0;
              last;
            })
      | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
      | None -> Error "metrics header is missing a schema field"))

let render_series (s : series) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%d snapshot(s) over %.1f ms (interval %d ms)\n"
       s.snapshots (s.span_us /. 1e3) s.interval_ms);
  let section title fmt fields =
    match J.member title s.last with
    | Some (J.Obj kvs) when kvs <> [] ->
      Buffer.add_string b (title ^ ":\n");
      List.iter (fun (k, v) -> Buffer.add_string b (fmt k v)) kvs
    | _ -> ignore fields
  in
  section "counters"
    (fun k v ->
      match v with
      | J.Num f -> Printf.sprintf "  %-40s %12.0f\n" k f
      | _ -> "")
    ();
  section "gauges"
    (fun k v ->
      match v with
      | J.Num f -> Printf.sprintf "  %-40s %12.2f\n" k f
      | _ -> "")
    ();
  (match J.member "histograms" s.last with
  | Some (J.Obj kvs) when kvs <> [] ->
    Buffer.add_string b
      (Printf.sprintf "histograms:\n  %-38s %8s %10s %10s %10s\n" "" "count"
         "p50" "p90" "p99");
    List.iter
      (fun (k, v) ->
        let f name = Option.value ~default:0.0 (mem_num name v) in
        Buffer.add_string b
          (Printf.sprintf "  %-38s %8.0f %10.1f %10.1f %10.1f\n" k (f "count")
             (f "p50") (f "p90") (f "p99")))
      kvs
  | _ -> ());
  Buffer.contents b

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

let load_campaign path : (campaign_stat, string) result =
  match read_lines path with
  | exception Sys_error m -> Error m
  | [] -> Error (path ^ ": empty campaign stream")
  | header :: rest -> (
    match J.parse header with
    | Error m -> Error ("header: " ^ m)
    | Ok h -> (
      match mem_str "schema" h with
      | Some "bespoke-campaign/v1" -> (
        let ok = ref 0 and failed = ref 0 and cached = ref 0 in
        let heartbeats = ref 0 in
        let wall = ref 0.0 and total = ref 0 in
        let kinds : (string, int ref * float ref) Hashtbl.t =
          Hashtbl.create 8
        in
        let bad = ref None in
        let last = List.length rest - 1 in
        List.iteri
          (fun i line ->
            if !bad = None then
              match J.parse line with
              | Error m when i = last -> skip_truncated path m
              | Error m ->
                bad := Some (Printf.sprintf "line %d: %s" (i + 2) m)
              | Ok j ->
                if mem_bool "heartbeat" j = Some true then incr heartbeats
                else if J.member "summary" j <> None then begin
                  total :=
                    int_of_float (Option.value ~default:0.0 (mem_num "total" j));
                  wall := Option.value ~default:0.0 (mem_num "wall_s" j)
                end
                else begin
                  (match mem_str "status" j with
                  | Some "ok" -> incr ok
                  | Some _ -> incr failed
                  | None -> ());
                  if mem_bool "cached" j = Some true then incr cached;
                  match mem_str "kind" j with
                  | None -> ()
                  | Some k ->
                    let c, t =
                      match Hashtbl.find_opt kinds k with
                      | Some e -> e
                      | None ->
                        let e = (ref 0, ref 0.0) in
                        Hashtbl.add kinds k e;
                        e
                    in
                    incr c;
                    t :=
                      !t +. Option.value ~default:0.0 (mem_num "time_s" j)
                end)
          rest;
        match !bad with
        | Some m -> Error m
        | None ->
          Ok
            {
              c_total = (if !total > 0 then !total else !ok + !failed);
              c_ok = !ok;
              c_failed = !failed;
              c_cached = !cached;
              c_wall_s = !wall;
              c_heartbeats = !heartbeats;
              c_kinds =
                List.sort compare
                  (Hashtbl.fold
                     (fun k (c, t) acc -> (k, !c, !t) :: acc)
                     kinds []);
            })
      | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
      | None -> Error "campaign header is missing a schema field"))

let render_campaign (c : campaign_stat) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "%d job(s): %d ok, %d failed, %d cache hit(s), %.3f s wall, %d \
        heartbeat(s)\n"
       c.c_total c.c_ok c.c_failed c.c_cached c.c_wall_s c.c_heartbeats);
  if c.c_wall_s > 0.0 then
    Buffer.add_string b
      (Printf.sprintf "throughput: %.1f jobs/s\n"
         (float_of_int c.c_total /. c.c_wall_s));
  if c.c_kinds <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-10s %8s %12s\n" "kind" "jobs" "cpu_s");
    List.iter
      (fun (k, n, t) ->
        Buffer.add_string b (Printf.sprintf "%-10s %8d %12.3f\n" k n t))
      c.c_kinds
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Guard streams (bespoke-guard/v1): one header describing the plan's
   monitor coverage, one record per assumption violation (carrying the
   cut-reason provenance), one trailing summary. *)

type guard_stat = {
  g_design : string;
  g_workload : string;
  g_mode : string;
  g_assumptions : int;
  g_monitors : int;
  g_implied : int;
  g_unmonitorable : int;
  g_cycles : int;
  g_violations : int;
  g_violating_gates : int;
  g_clean : bool;
  g_reasons : (string * int) list;
}

let load_guard path : (guard_stat, string) result =
  match read_lines path with
  | exception Sys_error m -> Error m
  | [] -> Error (path ^ ": empty guard stream")
  | header :: rest -> (
    match J.parse header with
    | Error m -> Error ("header: " ^ m)
    | Ok h -> (
      match mem_str "schema" h with
      | Some "bespoke-guard/v1" -> (
        let int_of name j =
          int_of_float (Option.value ~default:0.0 (mem_num name j))
        in
        let sfield name = Option.value ~default:"?" (mem_str name h) in
        let cycles = ref 0 and violations = ref 0 and gates = ref 0 in
        let clean = ref true and saw_summary = ref false in
        let reasons : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
        let bad = ref None in
        let last = List.length rest - 1 in
        List.iteri
          (fun i line ->
            if !bad = None then
              match J.parse line with
              | Error m when i = last -> skip_truncated path m
              | Error m ->
                bad := Some (Printf.sprintf "line %d: %s" (i + 2) m)
              | Ok j ->
                if J.member "summary" j <> None then begin
                  saw_summary := true;
                  cycles := int_of "cycles" j;
                  violations := int_of "violations" j;
                  gates := int_of "violating_gates" j;
                  clean := mem_bool "clean" j = Some true
                end
                else
                  match mem_str "reason" j with
                  | None -> ()
                  | Some r ->
                    clean := false;
                    incr gates;
                    (match Hashtbl.find_opt reasons r with
                    | Some c -> incr c
                    | None -> Hashtbl.add reasons r (ref 1)))
          rest;
        match !bad with
        | Some m -> Error m
        | None ->
          (* without the trailing summary (truncated stream) the
             per-violation records still give a lower bound *)
          if not !saw_summary then violations := !gates;
          Ok
            {
              g_design = sfield "design";
              g_workload = sfield "workload";
              g_mode = sfield "mode";
              g_assumptions = int_of "assumptions" h;
              g_monitors = int_of "monitors" h;
              g_implied = int_of "implied" h;
              g_unmonitorable = int_of "unmonitorable" h;
              g_cycles = !cycles;
              g_violations = !violations;
              g_violating_gates = !gates;
              g_clean = !clean;
              g_reasons =
                List.sort compare
                  (Hashtbl.fold (fun k c acc -> (k, !c) :: acc) reasons []);
            })
      | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
      | None -> Error "guard header is missing a schema field"))

let render_guard (g : guard_stat) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "workload %s on the %s design (%s mode): %d assumption(s) = %d \
        monitor(s) + %d implied + %d unmonitorable\n"
       g.g_workload g.g_design g.g_mode g.g_assumptions g.g_monitors
       g.g_implied g.g_unmonitorable);
  Buffer.add_string b
    (Printf.sprintf "%d cycle(s) checked: %s (%d violation(s) on %d gate(s))\n"
       g.g_cycles
       (if g.g_clean then "CLEAN" else "VIOLATED")
       g.g_violations g.g_violating_gates);
  if g.g_reasons <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-16s %8s\n" "cut reason" "gates");
    List.iter
      (fun (r, n) ->
        Buffer.add_string b (Printf.sprintf "%-16s %8d\n" r n))
      g.g_reasons
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Bench artifacts and regression comparison.

   A bench entry is a flat (metric -> value) map where every metric is
   throughput-like (higher is better): cps/<core>/<bench>/<engine>
   from the per-benchmark rows (the core segment is dropped for rows
   that predate the core field, keeping old artifacts comparable) and
   campaign/jobs_per_sec/<mode> from the campaign block.  Sources: BENCH_sim.json (one pretty-printed JSON
   value) or a BENCH_history.jsonl line (schema bespoke-bench/v1, the
   same value nested under "bench" with a timestamp and label); given
   a .jsonl file the LAST entry is used. *)

let history_schema = "bespoke-bench/v1"

type bench_entry = { b_label : string; b_metrics : (string * float) list }

let entry_of_json ~label j : bench_entry =
  (* unwrap a history line down to the BENCH_sim.json payload *)
  let label, j =
    match J.member "bench" j with
    | Some payload ->
      (Option.value ~default:label (mem_str "label" j), payload)
    | None -> (label, j)
  in
  let metrics = ref [] in
  (match J.member "benchmarks" j with
  | Some (J.Arr rows) ->
    List.iter
      (fun row ->
        match (mem_str "name" row, J.member "cycles_per_sec" row) with
        | Some name, Some (J.Obj engines) ->
          let name =
            match mem_str "core" row with
            | Some core -> core ^ "/" ^ name
            | None -> name
          in
          List.iter
            (fun (engine, v) ->
              match v with
              | J.Num f ->
                metrics :=
                  (Printf.sprintf "cps/%s/%s" name engine, f) :: !metrics
              | _ -> ())
            engines
        | _ -> ())
      rows
  | _ -> ());
  (match J.member "campaign" j with
  | Some c -> (
    match J.member "jobs_per_sec" c with
    | Some (J.Obj modes) ->
      List.iter
        (fun (mode, v) ->
          match v with
          | J.Num f ->
            metrics := ("campaign/jobs_per_sec/" ^ mode, f) :: !metrics
          | _ -> ())
        modes
    | _ -> ())
  | None -> ());
  { b_label = label; b_metrics = List.sort compare !metrics }

let load_bench path : (bench_entry, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  with
  | exception Sys_error m -> Error m
  | contents -> (
    let parsed =
      match J.parse contents with
      | Ok j -> Ok j
      | Error _ -> (
        (* a JSONL history file: take the last non-empty line *)
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' contents)
        in
        match List.rev lines with
        | last :: _ -> J.parse last
        | [] -> Error "empty file")
    in
    match parsed with
    | Error m -> Error (path ^ ": " ^ m)
    | Ok j -> (
      let entry = entry_of_json ~label:path j in
      match entry.b_metrics with
      | [] -> Error (path ^ ": no bench metrics found (not a bench artifact?)")
      | _ -> Ok entry))

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
  Buffer.add_string b
    (Printf.sprintf "old: %s\nnew: %s\n%d metric(s) compared, threshold %.0f%%\n"
       old_e.b_label new_e.b_label (List.length c.deltas) (pct threshold));
  let row d =
    Printf.sprintf "  %-34s %12.1f %12.1f %+7.1f%%\n" d.d_metric d.d_old d.d_new
      (pct (d.d_ratio -. 1.0))
  in
  if c.regressions <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "REGRESSIONS (%d):\n" (List.length c.regressions));
    List.iter (fun d -> Buffer.add_string b (row d)) c.regressions
  end
  else Buffer.add_string b "no regressions\n";
  (* the biggest movers either way, for context *)
  let interesting =
    List.filter (fun d -> Float.abs (d.d_ratio -. 1.0) >= 0.02) c.deltas
  in
  let shown = List.filteri (fun i _ -> i < 10) interesting in
  if shown <> [] && c.regressions = [] then begin
    Buffer.add_string b "largest deltas:\n";
    List.iter (fun d -> Buffer.add_string b (row d)) shown
  end;
  if c.only_old <> [] then
    Buffer.add_string b
      (Printf.sprintf "only in old: %s\n" (String.concat ", " c.only_old));
  if c.only_new <> [] then
    Buffer.add_string b
      (Printf.sprintf "only in new: %s\n" (String.concat ", " c.only_new));
  Buffer.contents b
