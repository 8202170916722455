(** Persistent domain pool for fanning independent tasks across
    cores.

    Worker domains are spawned on first use and reused for every later
    [map] (no per-call [Domain.spawn]/[join]).  Every domain serves one
    shared FIFO of tasks; the submitter of a [map] runs queued tasks
    itself until its batch drains, so a [map] submitted from inside a
    task composes without deadlock.

    Parallelism is gated behind the [BESPOKE_JOBS] environment variable
    (default 1 = fully sequential, no domains spawned), overridable
    in-process with {!set_default_jobs} (the CLI [--jobs] flag).
    Results are assembled in input order regardless of the job count.
    Tasks must be independent. *)

exception Task_errors of (int * exn) list
(** Raised by {!map}/{!iter} when one or more tasks raised: every
    failed task as [(input index, exception)], sorted by index.  All
    tasks run to completion (or failure) before this is raised —
    a failing task never cancels its siblings.  [Sys.Break] is the
    exception: see {!map}. *)

val clamp_jobs : int -> int
(** [max 1 (min n (Domain.recommended_domain_count ()))]: CPU-bound
    domains beyond the core count only add scheduling and GC-sync
    overhead, so requested job counts are capped at the hardware. *)

val default_jobs : unit -> int
(** The {!set_default_jobs} override if set, else [BESPOKE_JOBS] as a
    positive int, else 1 — then {!clamp_jobs}ed to the hardware. *)

val set_default_jobs : int -> unit
(** Override [BESPOKE_JOBS] process-wide (clamped to >= 1).  Used by
    the CLI [--jobs] flag. *)

val domain_count : unit -> int
(** Number of worker domains spawned so far (0 until the first
    parallel [map]; never shrinks). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] like [List.map f xs]; with [jobs > 1] (default
    {!default_jobs}) tasks are queued in input order and executed by
    the submitter plus up to [jobs - 1] pool workers.
    An explicit [~jobs] is taken literally, {e not} clamped — tests
    exercising the parallel paths need real worker domains even on a
    small machine; go through {!default_jobs} to be hardware-aware.
    Raises {!Task_errors} with {e every} failed task if any task
    raised; otherwise returns results in input order.

    A Ctrl-C stops the map: if a task raises [Sys.Break], or one
    reaches the submitter while it waits, the map's tasks that have not
    started are dropped, the running ones finish, and [map] raises
    [Sys.Break] instead of {!Task_errors}. *)

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit
(** [iter f xs] is [map] with unit results.  Raises {!Task_errors}
    like {!map}. *)
