(** Offline aggregation of flow telemetry artifacts: Chrome-trace
    JSONL, bespoke-metrics/v1 time series, bespoke-campaign/v1
    streams, and bench artifacts (BENCH_sim.json /
    BENCH_history.jsonl) with threshold-based regression comparison.
    Backs the [stats] CLI subcommand; parsing uses {!Obs.Json}, so no
    external JSON dependency.

    All JSONL loaders tolerate a truncated {e final} line (a live
    stream cut mid-record by a crash or a full disk): the tail is
    skipped with a warning on stderr and the records before it still
    aggregate.  A malformed line anywhere else is an error. *)

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
(** {!spans_of_events} over the events of a trace JSONL file. *)

val render_spans : ?top:int -> span_stat list -> string
(** Table of the [top] (default 15) spans by self time. *)

(** A loaded metrics time series. *)
type series = {
  interval_ms : int;
  snapshots : int;  (** number of snapshot records *)
  span_us : float;  (** last snapshot ts - first snapshot ts *)
  last : Obs.Json.t;  (** the last snapshot's metrics object *)
}

val load_metrics : string -> (series, string) result
(** Parse a bespoke-metrics/v1 JSONL file (header + snapshots). *)

val render_series : series -> string
(** Counters/gauges and histogram p50/p90/p99 from the last
    snapshot, plus the sampling envelope. *)

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

val load_campaign : string -> (campaign_stat, string) result
val render_campaign : campaign_stat -> string

(** Aggregate over a [bespoke-guard/v1] stream (see
    {!Bespoke_guard.Guard}): the plan's monitor coverage from the
    header, the violation verdict from the trailing summary, and a
    cut-reason histogram over the violation records. *)
type guard_stat = {
  g_design : string;
  g_workload : string;
  g_mode : string;  (** [hw], [shadow] or [original] *)
  g_assumptions : int;
  g_monitors : int;
  g_implied : int;
  g_unmonitorable : int;
  g_cycles : int;
  g_violations : int;
  g_violating_gates : int;
  g_clean : bool;
  g_reasons : (string * int) list;
      (** violated cut-reason label -> violating gates *)
}

val load_guard : string -> (guard_stat, string) result
val render_guard : guard_stat -> string

val history_schema : string
(** ["bespoke-bench/v1"] — the schema of BENCH_history.jsonl lines,
    which nest a BENCH_sim.json payload under ["bench"] with a
    timestamp and label. *)

(** A bench artifact flattened to (metric, value) pairs where every
    metric is throughput-like — higher is better: [cps/<bench>/<engine>]
    and [campaign/jobs_per_sec/<mode>]. *)
type bench_entry = { b_label : string; b_metrics : (string * float) list }

val load_bench : string -> (bench_entry, string) result
(** Load BENCH_sim.json (one JSON value) or a BENCH_history.jsonl file
    (the last line is used). *)

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
