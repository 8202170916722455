(** Flow-wide telemetry: structured tracing spans, a metrics registry,
    and Chrome-trace-compatible JSONL export.

    The whole subsystem is disabled by default and designed so that an
    instrumentation hook in a hot path costs a single mutable-flag
    check: every recording entry point ({!Span.with_},
    {!Metrics.incr}, {!Metrics.observe}, ...) first reads {!enabled}
    and returns immediately when tracing is off.  Callers that would
    otherwise do work just to build a hook's arguments should guard
    with [if Obs.enabled () then ...] themselves.

    Collection is domain-safe: trace events go to per-domain buffers
    (so {!Bespoke_core.Pool} workers can trace without contention) and
    metric updates are atomic.  Exporting ({!Trace.events},
    {!Metrics.snapshot_json}) is meant to run after worker domains
    have been joined.

    Setting the [BESPOKE_TRACE] environment variable enables
    collection at program start; if its value looks like a file path
    (anything other than [1]/[true]/[yes]/[on]) the JSONL trace is
    also written there at exit. *)

val enabled : unit -> bool
(** Is collection currently on?  This is the single flag every hook
    checks. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds since program start, at the host clock's
    (microsecond) resolution: the time base of sampled phase timers.
    The difference of two readings is unbiased over many samples even
    for phases shorter than a tick. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Clear all collected events and zero every registered metric
    (registrations themselves persist). *)

(** Nestable wall-clock spans with monotonic timestamps. *)
module Span : sig
  val with_ : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
  (** [with_ ~name f] runs [f], bracketing it with a begin/end event
      pair in the current domain's buffer.  The end event is emitted
      even if [f] raises.  When collection is disabled this is exactly
      [f ()]. *)

  val with_alloc : name:string -> (unit -> 'a) -> 'a
  (** As {!with_}, and the end event carries [alloc_words]: the words
      the calling domain allocated inside [f] ([Gc.counters]: minor
      plus major, less promoted). *)

  val instant : ?args:(string * string) list -> string -> unit
  (** A point event ([ph:"i"]) in the current domain's buffer. *)
end

(** Counters, gauges and log-scale histograms, registered by name.
    Registration is idempotent: looking a name up twice returns the
    same metric.  A name must keep its kind for the whole program. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  val incr : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  val gauge : string -> gauge
  val set : gauge -> float -> unit

  val histogram : string -> histogram

  val observe : histogram -> int -> unit
  (** Record a non-negative sample into power-of-two buckets. *)

  val lap : histogram -> int -> int
  (** [lap h since] observes [now_ns () - since] and returns the new
      {!now_ns} reading, so consecutive phases chain their timers. *)

  val histogram_count : histogram -> int

  val percentile : histogram -> float -> float
  (** [percentile h p] ([0. <= p <= 1.]) estimates the p-quantile from
      the log-scale buckets: the answer lies within the matched
      bucket's bounds (a factor-of-two resolution), clamped to the
      exact observed min/max. *)

  val names : unit -> string list
  (** All registered metric names, sorted. *)

  val snapshot_json : unit -> string
  (** The whole registry as a JSON object
      [{"counters":{..},"gauges":{..},"histograms":{..}}], with
      histograms expanded to count/sum/min/max/p50/p90/p99. *)

  val reset : unit -> unit
end

(** Export of the collected event stream. *)
module Trace : sig
  type event = {
    name : string;
    ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant *)
    ts_us : float;  (** microseconds since program start, monotonic per domain *)
    tid : int;  (** domain id *)
    args : (string * string) list;
  }

  val events : unit -> event list
  (** All buffered events, globally sorted by timestamp. *)

  val set_thread_name : string -> unit
  (** Name the calling domain's track in trace exports.  {!to_jsonl}
      turns each name into a Chrome-trace [M]-phase [thread_name]
      metadata event, so Perfetto shows one labelled track per domain.
      Unnamed domains appear as ["domain-<tid>"] (the main domain as
      ["main"]). *)

  val to_jsonl : unit -> string
  (** One Chrome-trace event object per line: [M]-phase
      process/thread-name metadata first, then events
      ([ph:"B"/"E"/"i"], [ts] in microseconds).  A span still open at
      export (a pool worker parked in [pool.idle], an early exit) is
      closed by a synthesized [E] event at the trace's last timestamp
      carrying the arg ["truncated":"true"], so B/E events balance on
      every track.  Wrap the lines in a JSON array (e.g. [jq -s .]) to
      load the file in a Chrome-trace viewer. *)

  val write_jsonl : string -> unit
  (** Write {!to_jsonl} to a file. *)

  val clear : unit -> unit
end

(** Background metrics sampler: a ticker domain snapshots the whole
    {!Metrics} registry every [interval_ms] into a schema-versioned
    ([bespoke-metrics/v1]) JSONL time series — a header line
    [{"schema":...,"interval_ms":N}] followed by
    [{"seq":N,"ts_us":T,"metrics":{...}}] records.  A snapshot is
    taken synchronously in {!Sampler.start} and a final one in
    {!Sampler.stop}, so any sampled run yields at least two. *)
module Sampler : sig
  val schema : string
  (** ["bespoke-metrics/v1"]. *)

  val add_probe : (unit -> unit) -> unit
  (** Register a callback run just before every snapshot; subsystems
      use it to refresh gauges derived from live state (e.g. the
      pool's queue depth).  Exceptions from probes are swallowed. *)

  val start : ?path:string -> interval_ms:int -> unit -> unit
  (** Open [path] (default ["bespoke_metrics.jsonl"]), write the
      header and first snapshot, and spawn the ticker domain.  Also
      calls {!enable}.  No-op if a sampler is already running.
      [interval_ms] is clamped to at least 1 ms (a zero or negative
      interval would spin the ticker); the clamped value is what the
      header records. *)

  val running : unit -> bool

  val path : unit -> string option
  (** The output path of the running sampler, if any. *)

  val stop : unit -> unit
  (** Join the ticker, emit a final snapshot and close the file.
      Idempotent; also registered [at_exit] by {!start}. *)
end

(** The one JSON layer of the flow, with no external dependency: every
    [bespoke-*/v1] artifact, the trace and the metrics are emitted
    with these encoders and read back with {!parse}.

    The encoders return already-encoded JSON text, so a raw value
    (a preformatted number, a stored payload field) composes with
    encoded ones unchanged. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val str : string -> string
  (** A quoted JSON string: double quote and backslash are
      backslash-escaped, newline, carriage return and tab use their
      short escapes, every other byte below 0x20 becomes [\u00XX]; all
      other bytes (multi-byte UTF-8 included) pass through unchanged.
      This is the only JSON string escaper in the tree. *)

  val num : float -> string
  (** NaN and ±infinity encode as [0]; integers below 1e15 in magnitude
      as [%.0f] (so they round-trip exactly); anything else as [%.6g]. *)

  val int : int -> string
  val bool : bool -> string

  val arr : string list -> string
  (** [[v1,v2,...]] over encoded values. *)

  val obj : (string * string) list -> string
  (** [{"k1":v1,...}] over encoded values, keys in the given order. *)

  val parse : string -> (t, string) result
  (** Parse one complete JSON value (surrounding whitespace allowed). *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)

  (** Typed field lookups: [None] when the field is absent or of
      another type. *)

  val mem_str : string -> t -> string option
  val mem_num : string -> t -> float option
  val mem_bool : string -> t -> bool option
  val mem_arr : string -> t -> t list option
  val mem_obj : string -> t -> (string * t) list option
end
