(** Ternary word-addressed memory model (program ROM / data RAM).

    Memories are external to the pruned netlist (the paper tailors the
    core's gates, not the SRAM macros), so the simulator models them
    behaviorally with conservative ternary semantics:

    - read at a known index: the stored word (bits may be X);
    - read at an index with X bits: the merge of every word the index
      pattern could select;
    - write with X write-enable or X mask bits: old and new values are
      merged (the write may or may not happen);
    - write at an index with X bits: every word the pattern could
      select merges in the (masked) data.

    An index with more than 10 X bits selects every word.

    All of which over-approximates the set of reachable memory states,
    keeping Algorithm 1 sound.

    Storage is dual-rail, the encoding {!Compile} uses: each word is
    two [int]s over its bits, [lo] (the bit can be 0) and [hi] (the bit
    can be 1), so X sets both.  An X-index read ORs the candidate
    words' rails, merging snapshots is an OR, and subsumption is
    [specific land lnot general = 0]; the word width is at most 62.

    A snapshot is an immutable array of 32-word pages that snapshots
    share: the live memory is one flat rail array that remembers which
    pages were written since its last snapshot or restore, so a
    snapshot copies only those pages and reuses the rest of the
    previous one.  A restore copies in only the pages that differ from
    the live memory's, and merge, subsume, equality, consistency and
    {!diff} skip a pair of shared pages without reading it.  The
    number of memory words snapshots copy is the Obs counter
    [sim.memory.snapshot_words]. *)

module Bit := Bespoke_logic.Bit
module Bvec := Bespoke_logic.Bvec

type t

val create : words:int -> width:int -> init:Bit.t -> t
(** [words] must be a power of two; indices wrap modulo [words].
    Raises [Invalid_argument] if [width > 62]. *)

val words : t -> int
val width : t -> int
val clear : t -> Bit.t -> unit

(** {1 Direct (known-index) access, for program loading and harnesses} *)

val load : t -> int -> Bvec.t -> unit
val load_int : t -> int -> int -> unit
val read_word : t -> int -> Bvec.t

val read_word_int : t -> int -> int option
(** Allocation-free fast path for harness inner loops: the stored word
    as an integer, [None] if any bit is X. *)

val write_masked_int : t -> int -> data:int -> mask:int -> unit
(** Fully-known write fast path: store bit [i] of [data] wherever bit
    [i] of [mask] is set.  Semantically identical to {!write} with a
    known index, known data, a definite per-bit mask and [en = One]. *)

val set_x_range : t -> lo:int -> hi:int -> unit
(** Mark an inclusive word-index range unknown (application-input
    regions during symbolic analysis). *)

(** {1 Ternary port access} *)

val read : t -> Bvec.t -> Bvec.t

val write : t -> addr:Bvec.t -> data:Bvec.t -> mask:Bvec.t -> en:Bit.t -> unit
(** [mask] is a per-bit write mask of the memory width (byte lanes
    expanded by the caller); a mask bit of [Zero] leaves the stored bit
    unchanged, [One] writes it, [X] merges. *)

(** {1 State capture (execution-tree exploration)} *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val merge_snapshot : snapshot -> snapshot -> snapshot
val subsumes : general:snapshot -> specific:snapshot -> bool
val equal_snapshot : snapshot -> snapshot -> bool

val diff : base:snapshot -> t -> int array
(** The words whose rails differ from [base], as flat [(index, lo, hi)]
    triples in ascending index order: a compact record of a memory
    state that stays close to a known one. *)

val patch : snapshot -> int array -> pos:int -> len:int -> snapshot
(** A copy of the snapshot with the [len] {!diff} triples starting at
    [pos] applied. *)

(** [consistent_snapshots a b]: no bit is definite in both snapshots
    with different values (X is compatible with anything). *)
val consistent_snapshots : snapshot -> snapshot -> bool

val shared_pages : snapshot -> snapshot -> int
(** The pages two snapshots share: the ones merge, subsume,
    equality, consistency and {!diff} skip without reading a word. *)
