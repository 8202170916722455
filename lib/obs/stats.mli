(** One reader per artifact the flow writes: Chrome-trace JSONL, metrics
    snapshots and bespoke-metrics/v1 series, bespoke-campaign/v1 and
    bespoke-guard/v1 streams, bespoke-report/v1, bespoke-analysis/v1
    and bespoke-verify/v1 artifacts, BENCH_sim.json and bespoke-bench/v1
    history lines.  Each reader checks its schema's invariants
    (docs/SCHEMAS.md) while it loads the file and fails on the first
    broken one, so loading an artifact is checking it.  Backs the [stats] CLI subcommand; parsing
    uses {!Obs.Json}, so no external JSON dependency.

    Every JSONL reader tolerates a truncated {e final} line (a live
    stream cut mid-record by a crash or a full disk): the tail is
    skipped with a warning on stderr, the records before it still
    aggregate, and the invariants only a finished stream can meet (a
    trailing summary, every job recorded, every span closed) are not
    asked of it.  A malformed line anywhere else is an error. *)

(** Per-span aggregate over a trace: [self_us] is [total_us] minus the
    time spent in directly nested child spans — summing self times
    never double-counts a parent. *)
type span_stat = {
  span_name : string;
  count : int;
  total_us : float;
  self_us : float;
}

val spans_of_events : Obs.Trace.event list -> span_stat list
(** Reconstruct span durations from B/E events (per-tid bracketing;
    other phases and unmatched [E]s are tolerated).  Sorted by self
    time, descending.  The CLI's exit summary runs it over the live
    {!Obs.Trace.events}. *)

val load_trace : string -> (span_stat list, string) result
(** {!spans_of_events} over the events of a trace JSONL file, which
    must be a well-formed trace (see {!load}). *)

val render_spans : ?top:int -> span_stat list -> string
(** Table of the [top] (default 15) spans by self time. *)

(** A metrics time series. *)
type series = {
  interval_ms : int;
  snapshots : int;  (** number of snapshot records *)
  span_us : float;  (** last snapshot ts - first snapshot ts *)
  last : Obs.Json.t;  (** the last snapshot's metrics object *)
}

(** Aggregate over a campaign stream, heartbeat records included. *)
type campaign_stat = {
  c_total : int;
  c_ok : int;
  c_failed : int;
  c_cached : int;
  c_wall_s : float;
  c_heartbeats : int;
  c_kinds : (string * int * float) list;  (** kind, records, cumulative s *)
}

(** Aggregate over a [bespoke-guard/v1] stream (see
    {!Bespoke_guard.Guard}): the plan's monitor coverage from the
    header, the violation verdict from the trailing summary, and a
    cut-reason histogram over the violation records. *)
type guard_stat = {
  g_header : Obs.Json.t;  (** the checked header: design, workload, mode, coverage *)
  g_cycles : int;
  g_violations : int;
  g_violating_gates : int;
  g_clean : bool;
  g_reasons : (string * int) list;
      (** violated cut-reason label -> violating gates *)
}

val history_schema : string
(** ["bespoke-bench/v1"] — the schema of BENCH_history.jsonl lines,
    which nest a BENCH_sim.json payload under ["bench"] with a
    timestamp and label. *)

(** A bench artifact flattened to (metric, value) pairs where every
    metric is throughput-like — higher is better: [cps/<bench>/<engine>]
    and [campaign/jobs_per_sec/<mode>]. *)
type bench_entry = { b_label : string; b_metrics : (string * float) list }

(** A checked artifact, by kind. *)
type artifact =
  | Trace of span_stat list
  | Snapshot of Obs.Json.t  (** one [--metrics-out] registry snapshot *)
  | Series of series
  | Campaign of campaign_stat
  | Guard of guard_stat
  | Report of Obs.Json.t list  (** the benchmark rows *)
  | Analysis of Obs.Json.t  (** one [analyze --json] document *)
  | Verify of (string * Obs.Json.t list)  (** the core, the benchmark rows *)
  | Bench_sim of Obs.Json.t
      (** BENCH_sim.json, which also meets its acceptance bars *)
  | History of bench_entry list  (** one entry per history line *)

val load : string -> (artifact, string) result
(** Work out the file's kind from its schema tag or shape, read it and
    check its invariants.  [Error "FILE: invariant"] names the first
    one broken. *)

val read : name:string -> string -> (artifact, string) result
(** {!load} over an artifact's text; [name] stands for the file in
    messages. *)

val render : ?top:int -> string -> artifact -> string
(** [render path a]: the [stats] table of one artifact, headed with
    its kind and [path]; [top] as in {!render_spans}. *)

val load_bench : string -> (bench_entry, string) result
(** Load BENCH_sim.json or a BENCH_history.jsonl file (every line is
    read and checked; the last one is the entry). *)

type delta = {
  d_metric : string;
  d_old : float;
  d_new : float;
  d_ratio : float;  (** new / old; < 1 is a slowdown *)
}

type comparison = {
  deltas : delta list;  (** metrics present in both entries, worst first *)
  regressions : delta list;  (** ratio below [1 - threshold] *)
  only_old : string list;
  only_new : string list;
}

val compare_benches : threshold:float -> bench_entry -> bench_entry -> comparison
(** [compare_benches ~threshold old new]: a metric regresses when
    [new/old < 1 - threshold] (e.g. [threshold = 0.1] flags >10%
    throughput drops). *)

val render_compare :
  threshold:float -> bench_entry -> bench_entry -> comparison -> string
