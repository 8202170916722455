(* Persistent domain pool for fanning independent coarse tasks
   (campaign jobs, verify benchmarks, the bench's analyses and
   Multi.sweep chunks) across cores.

   Worker domains are spawned once, on first parallel [map], and reused
   for every later call — a per-call fork-join would pay a
   [Domain.spawn]/[join] round-trip on every map, which dominates for
   the short task lists campaigns produce.  Every domain serves one
   shared FIFO of thunks.  The submitter of a map pushes its tasks and
   then runs queued tasks itself (its own or another map's) until its
   batch drains, so a map submitted from inside a task still cannot
   deadlock.

   Parallelism is opt-in via the BESPOKE_JOBS environment variable (or
   [set_default_jobs], which overrides it) so tests and default runs
   stay single-domain and deterministic; with jobs > 1 the task results
   are still assembled in input order, so output is deterministic
   either way — only wall-clock changes.

   Ctrl-C is the one error that is not a task's: a task that raises
   [Sys.Break] stops its map — queued tasks of that map are dropped,
   running ones finish — and [map] re-raises [Sys.Break]. *)

module Obs = Bespoke_obs.Obs

let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_maps = Obs.Metrics.counter "pool.maps"
let m_domains = Obs.Metrics.counter "pool.domains_spawned"
let g_queue = Obs.Metrics.gauge "pool.queue_depth"

(* Per-slot "tasks run" counter, looked up lazily so the registry only
   grows names for slots that actually execute work.  Only consulted
   when collection is on — registration is an idempotent locked lookup,
   cheap enough for the traced path. *)
let slot_tasks_counter slot =
  Obs.Metrics.counter (Printf.sprintf "pool.slot%d.tasks" slot)

exception Task_errors of (int * exn) list

let () =
  Printexc.register_printer (function
    | Task_errors errs ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "Pool.Task_errors (%d failed task%s:"
           (List.length errs)
           (if List.length errs = 1 then "" else "s"));
      List.iter
        (fun (i, e) ->
          Buffer.add_string b
            (Printf.sprintf " [%d] %s" i (Printexc.to_string e)))
        errs;
      Buffer.add_char b ')';
      Some (Buffer.contents b)
    | _ -> None)

(* Warn (once, domain-safely) instead of silently ignoring — or worse,
   raising on — a malformed BESPOKE_JOBS value; the safe fallback is
   single-domain. *)
let warned_bad_jobs = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt "BESPOKE_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ ->
      if not (Atomic.exchange warned_bad_jobs true) then
        Printf.eprintf
          "warning: BESPOKE_JOBS=%S is not a positive integer; running with 1 \
           job\n\
           %!"
          s;
      1)

(* 0 = no override, fall back to the environment. *)
let override_jobs = Atomic.make 0
let set_default_jobs n = Atomic.set override_jobs (max 1 n)

(* CPU-bound workloads gain nothing and lose plenty from running more
   domains than the machine has cores: the domains time-slice one
   core and every minor GC synchronizes all of them.  Requested job
   counts (BESPOKE_JOBS, --jobs) are therefore clamped to the
   hardware; measured here: a 45-job campaign at --jobs 4 on one core
   ran 1.3x slower than at 1 before the clamp.  [map ~jobs] stays
   literal — explicit callers (tests stressing the parallel paths)
   get exactly what they ask for. *)
let clamp_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

let default_jobs () =
  let o = Atomic.get override_jobs in
  clamp_jobs (if o > 0 then o else env_jobs ())

(* ------------------------------------------------------------------ *)
(* Pool state, all under [lock].  Slot 0 is every non-worker domain
   (normally just the main domain); slots 1..n are the workers.  One
   condition, [changed], is broadcast whenever a waiter's predicate may
   have turned: tasks were queued, a batch drained, or the pool shuts
   down.  Idle workers wait while the queue is empty; a submitter waits
   while the queue is empty and its batch is not done. *)

let max_workers = 62
let lock = Mutex.create ()
let changed = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let shutdown = ref false
let n_workers = Atomic.make 0
let worker_domains : unit Domain.t list ref = ref []
let my_slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let () =
  Obs.Sampler.add_probe (fun () ->
      let depth = Mutex.protect lock (fun () -> Queue.length queue) in
      Obs.Metrics.set g_queue (float_of_int depth))

(* Run one task under the telemetry wrappers: a per-slot busy span and
   tasks-run counter when collection is on, the bare thunk otherwise. *)
let exec_task slot task =
  if Obs.enabled () then begin
    Obs.Metrics.incr (slot_tasks_counter slot);
    Obs.Span.with_ ~name:"pool.busy"
      ~args:[ ("slot", string_of_int slot) ]
      task
  end
  else task ()

(* [None] once the pool shuts down, else the next task if one is
   queued. *)
let take () =
  Mutex.protect lock (fun () ->
      if !shutdown then None else Some (Queue.take_opt queue))

let worker_loop slot =
  Domain.DLS.set my_slot slot;
  Obs.Trace.set_thread_name (Printf.sprintf "worker-%d" slot);
  let park () =
    Obs.Span.with_ ~name:"pool.idle"
      ~args:[ ("slot", string_of_int slot) ]
    @@ fun () ->
    Mutex.protect lock (fun () ->
        while Queue.is_empty queue && not !shutdown do
          Condition.wait changed lock
        done)
  in
  let rec loop () =
    match take () with
    | None -> ()
    | Some next ->
      (* Tasks report their own errors; what else reaches here is a
         Ctrl-C that struck between tasks, and it belongs to no map. *)
      (try match next with Some task -> exec_task slot task | None -> park ()
       with _ -> ());
      loop ()
  in
  loop ()

let domain_count () = Atomic.get n_workers

let ensure_workers want =
  let want = min want max_workers in
  if Atomic.get n_workers < want then
    Mutex.protect lock (fun () ->
        while Atomic.get n_workers < want do
          let slot = Atomic.get n_workers + 1 in
          let d = Domain.spawn (fun () -> worker_loop slot) in
          worker_domains := d :: !worker_domains;
          Obs.Metrics.incr m_domains;
          Atomic.set n_workers slot
        done)

(* Join the workers on exit so the runtime shuts down cleanly.  A
   worker finishes the task it is running, then leaves as soon as it
   sees [shutdown]. *)
let () =
  at_exit (fun () ->
      if Atomic.get n_workers > 0 then begin
        Mutex.protect lock (fun () ->
            shutdown := true;
            Condition.broadcast changed);
        List.iter Domain.join !worker_domains
      end)

(* ------------------------------------------------------------------ *)

let map ?jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  Obs.Span.with_ ~name:"pool.map"
    ~args:[ ("jobs", string_of_int jobs); ("tasks", string_of_int n) ]
  @@ fun () ->
  Obs.Metrics.incr m_maps;
  Obs.Metrics.add m_tasks n;
  let results : 'b option array = Array.make n None in
  let errors : (int * exn) list ref = ref [] in
  let interrupted = Atomic.make false in
  (* Once the map is interrupted, tasks that have not started yet are
     dropped. *)
  let run_task i =
    if not (Atomic.get interrupted) then
      match f items.(i) with
      | v -> results.(i) <- Some v
      | exception Sys.Break -> Atomic.set interrupted true
      | exception e ->
        Mutex.protect lock (fun () -> errors := (i, e) :: !errors)
  in
  let slot = Domain.DLS.get my_slot in
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      if not (Atomic.get interrupted) then exec_task slot (fun () -> run_task i)
    done
  else begin
    ensure_workers (jobs - 1);
    let remaining = ref n in
    let task i () =
      run_task i;
      Mutex.protect lock (fun () ->
          decr remaining;
          if !remaining = 0 then Condition.broadcast changed)
    in
    Mutex.protect lock (fun () ->
        for i = 0 to n - 1 do
          Queue.push (task i) queue
        done;
        Condition.broadcast changed);
    (* Drive: the submitter runs queued tasks — its own, or another
       map's — until this batch drains, and sleeps only while the queue
       is empty and tasks of the batch are still running elsewhere.  A
       Ctrl-C that strikes here interrupts this map like one raised by
       its tasks: the rest of the batch is dropped, not abandoned. *)
    let rec drive () =
      match
        Mutex.protect lock (fun () ->
            while !remaining > 0 && Queue.is_empty queue do
              Condition.wait changed lock
            done;
            if !remaining = 0 then None else Some (Queue.take queue))
      with
      | None -> ()
      | Some t ->
        exec_task slot t;
        drive ()
      | exception Sys.Break ->
        Atomic.set interrupted true;
        drive ()
    in
    drive ()
  end;
  if Atomic.get interrupted then raise Sys.Break;
  (match !errors with
  | [] -> ()
  | errs ->
    (* Sort by index only: polymorphic compare on the exn payload can
       raise on functional values. *)
    let errs = List.sort (fun (a, _) (b, _) -> compare (a : int) b) errs in
    raise (Task_errors errs));
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) results)

let iter ?jobs f xs =
  ignore
    (map ?jobs
       (fun x ->
         f x;
         ())
       xs)
