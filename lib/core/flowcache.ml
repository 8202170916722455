(* Content-addressed flow cache: memoize expensive flow stages
   (analysis, tailoring, whole campaign jobs) by a digest of everything
   the stage's result depends on — binary image hash, netlist hash,
   config fingerprint.  Repeated requests for the same (program,
   design, config) triple are near-free, which is what makes campaign
   batches fast on few cores.

   Each cache is a named, mutex-protected hash table with hit/miss
   counts mirrored into Obs metrics (flowcache.<name>.hits/.misses).
   Lookups that miss compute OUTSIDE the lock (a slow compute must not
   serialize unrelated lookups), and concurrent misses on the SAME key
   deduplicate: the first requester computes, later ones wait on the
   cache's condition variable and adopt the result — without this, a
   campaign running analyze/tailor/report of one benchmark on three
   domains would compute the same analysis three times and throw two
   away.  If the compute raises, the in-flight marker is cleared and a
   waiter takes over the compute.

   An optional capacity bound evicts in insertion order (FIFO) — good
   enough for the batch workloads here, where a campaign either fits or
   streams through once. *)

module Obs = Bespoke_obs.Obs

type 'v t = {
  name : string;
  lock : Mutex.t;
  cond : Condition.t; (* signaled when an in-flight compute finishes *)
  tbl : (string, 'v) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  order : string Queue.t; (* insertion order, for capacity eviction *)
  capacity : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
}

(* Registry so callers (bench harness, campaign warm/cold timing) can
   reset or inspect every cache in the process at once. *)
type any = Any : 'v t -> any

let reg_lock = Mutex.create ()
let registry : any list ref = ref []

let create ?capacity ~name () =
  let c =
    {
      name;
      lock = Mutex.create ();
      cond = Condition.create ();
      tbl = Hashtbl.create 64;
      inflight = Hashtbl.create 8;
      order = Queue.create ();
      capacity;
      hits = 0;
      misses = 0;
      evictions = 0;
      m_hits = Obs.Metrics.counter (Printf.sprintf "flowcache.%s.hits" name);
      m_misses = Obs.Metrics.counter (Printf.sprintf "flowcache.%s.misses" name);
      m_evictions =
        Obs.Metrics.counter (Printf.sprintf "flowcache.%s.evictions" name);
    }
  in
  Mutex.lock reg_lock;
  registry := Any c :: !registry;
  Mutex.unlock reg_lock;
  c

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let find_or_compute_report c ~key compute =
  Mutex.lock c.lock;
  (* A waiter can wake to find the key neither cached (the computer
     raised, or a tiny capacity evicted it) nor in flight — then it
     claims the compute itself. *)
  let rec lookup () =
    match Hashtbl.find_opt c.tbl key with
    | Some v -> Some v
    | None ->
      if Hashtbl.mem c.inflight key then (
        Condition.wait c.cond c.lock;
        lookup ())
      else None
  in
  match lookup () with
  | Some v ->
    c.hits <- c.hits + 1;
    Mutex.unlock c.lock;
    Obs.Metrics.incr c.m_hits;
    (v, true)
  | None ->
    Hashtbl.replace c.inflight key ();
    c.misses <- c.misses + 1;
    Mutex.unlock c.lock;
    Obs.Metrics.incr c.m_misses;
    let v =
      try compute ()
      with e ->
        Mutex.lock c.lock;
        Hashtbl.remove c.inflight key;
        Condition.broadcast c.cond;
        Mutex.unlock c.lock;
        raise e
    in
    Mutex.lock c.lock;
    Hashtbl.remove c.inflight key;
    let v =
      match Hashtbl.find_opt c.tbl key with
      | Some v' -> v' (* first writer wins *)
      | None ->
        Hashtbl.replace c.tbl key v;
        Queue.push key c.order;
        (match c.capacity with
        | Some cap when Hashtbl.length c.tbl > cap ->
          let oldest = Queue.pop c.order in
          Hashtbl.remove c.tbl oldest;
          c.evictions <- c.evictions + 1;
          Obs.Metrics.incr c.m_evictions
        | _ -> ());
        v
    in
    Condition.broadcast c.cond;
    Mutex.unlock c.lock;
    (v, false)

let find_or_compute c ~key compute =
  fst (find_or_compute_report c ~key compute)

let clear c =
  Mutex.lock c.lock;
  Hashtbl.reset c.tbl;
  Queue.clear c.order;
  Mutex.unlock c.lock

let hits c =
  Mutex.lock c.lock;
  let h = c.hits in
  Mutex.unlock c.lock;
  h

let misses c =
  Mutex.lock c.lock;
  let m = c.misses in
  Mutex.unlock c.lock;
  m

let length c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.tbl in
  Mutex.unlock c.lock;
  n

let clear_all () =
  Mutex.lock reg_lock;
  let cs = !registry in
  Mutex.unlock reg_lock;
  List.iter (fun (Any c) -> clear c) cs

type stats = {
  s_name : string;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_entries : int;
}

let stats_all () =
  Mutex.lock reg_lock;
  let cs = !registry in
  Mutex.unlock reg_lock;
  List.sort
    (fun a b -> compare a.s_name b.s_name)
    (List.rev_map
       (fun (Any c) ->
         Mutex.lock c.lock;
         let s =
           {
             s_name = c.name;
             s_hits = c.hits;
             s_misses = c.misses;
             s_evictions = c.evictions;
             s_entries = Hashtbl.length c.tbl;
           }
         in
         Mutex.unlock c.lock;
         s)
       cs)

(* Shared by every `--cache-stats` CLI path. *)
let stats_table () =
  let stats = stats_all () in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-20s %8s %8s %6s %10s %8s\n" "cache" "hits" "misses"
       "hit%" "evictions" "entries");
  List.iter
    (fun s ->
      let total = s.s_hits + s.s_misses in
      Buffer.add_string b
        (Printf.sprintf "%-20s %8d %8d %5.1f%% %10d %8d\n" s.s_name s.s_hits
           s.s_misses
           (if total > 0 then 100.0 *. float_of_int s.s_hits /. float_of_int total
            else 0.0)
           s.s_evictions s.s_entries))
    stats;
  Buffer.contents b
