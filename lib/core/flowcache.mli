(** Content-addressed flow cache.

    Memoizes expensive flow stages by a digest of everything the
    result depends on (binary image hash, netlist hash, config
    fingerprint — see {!digest}).  Domain-safe: lookups take a
    per-cache mutex, misses compute outside it, and on a compute race
    the first writer wins.  Hit/miss counts are mirrored into Obs
    metrics as [flowcache.<name>.hits] / [flowcache.<name>.misses]. *)

type 'v t

val create : ?capacity:int -> name:string -> unit -> 'v t
(** A fresh cache registered under [name].  With [capacity], entries
    beyond it are evicted in insertion order. *)

val digest : string list -> string
(** Hex digest of the concatenated parts (NUL-separated, so part
    boundaries are unambiguous).  Use one part per input dimension:
    stage name, image hash, netlist hash, config fingerprint. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** Return the cached value for [key], computing (outside the lock)
    and caching it on a miss.  Concurrent misses on the same key
    deduplicate: one caller computes, the others wait and adopt the
    result (counted as hits).  If the compute raises, the exception
    propagates to its caller and a waiter takes over the compute. *)

val find_or_compute_report : 'v t -> key:string -> (unit -> 'v) -> 'v * bool
(** Like {!find_or_compute} but also reports whether the value came
    from the cache ([true] = hit, including adopting a concurrent
    in-flight compute). *)

val clear : 'v t -> unit
(** Drop all entries (hit/miss counters are kept — they count lookups,
    not contents). *)

val hits : 'v t -> int
val misses : 'v t -> int
val length : 'v t -> int

val clear_all : unit -> unit
(** {!clear} every cache created in this process — used to measure
    cache-cold campaign timings without restarting. *)

(** One cache's lifetime counters plus its current size. *)
type stats = {
  s_name : string;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_entries : int;
}

val stats_all : unit -> stats list
(** Stats for every cache created in this process, sorted by name. *)

val stats_table : unit -> string
(** {!stats_all} rendered as the table the [--cache-stats] CLI flag
    prints. *)
