(** The campaign engine: batches of flow jobs sharded across the
    persistent {!Bespoke_core.Pool}, memoized by the content-addressed
    {!Bespoke_core.Flowcache}, streamed as schema-versioned
    [bespoke-campaign/v1] JSONL.

    A job that raises yields an error record (its [status] is
    [Error _]); every other job still completes — a campaign never
    dies with a job. *)

module B := Bespoke_programs.Benchmark
module Runner := Bespoke_core.Runner

type kind =
  | Analyze  (** input-independent activity analysis *)
  | Tailor  (** analysis + cut-and-stitch + resynthesis *)
  | Report  (** tailor + representative run + area/power report *)
  | Verify  (** the three-layer verification campaign *)
  | Run  (** concrete ISS/gate run with equivalence check *)
  | Guard
      (** deployment-guard replay: the benchmark (or its mutant
          [mutant], when >= 0) runs on the bespoke design with the
          {!Bespoke_guard.Guard} shadow watcher attached; the payload
          carries monitor coverage and the violation verdict *)

val kind_to_string : kind -> string

type program =
  | Named of string
      (** resolved against the job's core's benchmark registry
          ({!Bespoke_cores.Cores}) at {e execution} time, so an
          unknown name — or an unknown core — is that job's error
          record, not a campaign failure *)
  | Inline of B.t

type job = {
  kind : kind;
  core : string;  (** {!Bespoke_cores.Cores} registry name *)
  program : program;
  seed : int;  (** concrete-input seed for report/run/verify/guard *)
  faults : int;  (** injected faults for verify *)
  mutant : int;  (** guard workload: mutant id, or < 0 for the program *)
}

val job :
  ?kind:kind -> ?core:string -> ?seed:int -> ?faults:int -> ?mutant:int ->
  program -> job
(** Defaults: [Analyze], the default core ([msp430]), seed 1, 3
    faults, mutant -1. *)

val program_name : program -> string

val mutants :
  core:Bespoke_coreapi.Coredef.t -> B.t ->
  (Bespoke_mutation.Mutation.mutant list, string) result
(** The program's single-instruction mutants; an error on any core but
    msp430, whose assembly the mutation catalog rewrites. *)

val guard_workload :
  core:Bespoke_coreapi.Coredef.t -> B.t -> int option -> (B.t, string) result
(** What a guard replay runs: the program itself ([None]) or its
    mutant with the given id, resolved through {!mutants}. *)

type outcome = {
  o_job : job;
  o_index : int;  (** position in the submitted job list *)
  status : ((string * string) list, string) result;
      (** [Ok payload] as (field, raw JSON value) pairs, or the
          exception text *)
  time_s : float;
  cached : bool;  (** payload came from the flow cache *)
}

type summary = {
  total : int;
  ok : int;
  failed : int;
  cache_hits : int;
  wall_s : float;
  jobs_used : int;
}

(** Live campaign events, for progress reporting. *)
type event =
  | Job_started of int * job  (** input index, just dequeued *)
  | Job_finished of outcome

(** A consistent snapshot of campaign progress, passed to the event
    hook alongside every event. *)
type progress = {
  p_done : int;
  p_ok : int;
  p_failed : int;
  p_cached : int;
  p_running : int;  (** started but not yet finished *)
  p_total : int;
  p_elapsed_s : float;
}

val jobs_per_sec : progress -> float
(** Completion rate so far; 0 until the first job finishes. *)

val cache_hit_rate : progress -> float
(** Fraction of finished jobs served from the flow cache, in [0,1]. *)

val progress_line : progress -> string
(** One-line human status: done/running/failed, jobs/s, cache
    hit-rate, ETA — what [campaign --progress] renders to stderr. *)

val run :
  ?jobs:int ->
  ?on_event:(event -> progress -> unit) ->
  job list ->
  outcome list * summary
(** Execute the jobs on the pool ([jobs] defaults to
    {!Bespoke_core.Pool.default_jobs}; either way the count is
    clamped to the hardware's concurrency — the campaign is CPU-bound
    and oversubscribed domains only slow it down).  The count
    actually used is reported as [jobs_used].  [on_event] is called on
    every start and finish (each outcome arrives as [Job_finished]),
    with the progress snapshot taken after applying the event; calls
    are serialized under one lock — safe to write a stream from.
    Outcomes are returned in input order regardless.  Each job is
    memoized by (kind, binary hash, netlist hash, input content,
    params).

    Exception: [Sys.Break] is {e not} crash-isolated — an interrupt
    aborts the campaign (pending jobs are skipped, the whole run
    raises [Sys.Break]) rather than becoming one job's error
    record. *)

val parse_line : string -> (job option, string) result
(** One job-list line:
    [KIND BENCH [core=NAME] [seed=N] [faults=N] [mutant=N]].
    Blank lines and [#] comments are [Ok None]. *)

val parse_file : string -> (job list, string) result
(** Parse a job file; the error carries [file:line:]. *)

val schema : string
(** ["bespoke-campaign/v1"]. *)

val header_jsonl : jobs:int -> cores:string list -> total:int -> string
(** [cores] is the distinct core names the campaign targets — an
    additive field of the [bespoke-campaign/v1] header. *)

val outcome_jsonl : outcome -> string

val heartbeat_jsonl : seq:int -> progress -> string
(** A machine-readable progress record interleaved into the stream;
    distinguished from outcomes by its ["heartbeat"] field. *)

val summary_jsonl : summary -> string
