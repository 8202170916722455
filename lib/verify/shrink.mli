(** Failing-case shrinking: when a fault or a fuzz seed produces a
    lockstep divergence, reduce the evidence to a minimal repro before
    reporting it.

    Two dimensions are shrunk:

    - the {e input seed list} is greedily minimized (drop every seed
      whose removal keeps the divergence; for independent per-seed
      co-simulation this converges to the single cheapest diverging
      seed);
    - the {e instruction trace} needs no search: lockstep compares
      every architectural register at every instruction boundary, so
      the reported [at_insn] is already the minimal diverging
      instruction index, counted in retired instructions (an interrupt
      entry retires none) — a replay may stop there. *)

module Lockstep := Bespoke_coreapi.Lockstep

type repro = {
  seeds : int list;  (** minimal seed list, [<=] the original *)
  info : Lockstep.divergence_info;
      (** first divergence under the minimal seed list;
          [info.at_insn] is the minimal diverging instruction index,
          in retired instructions *)
}

val minimize : ('a list -> bool) -> 'a list -> 'a list
(** [minimize still_failing xs] greedily removes elements while
    [still_failing] holds on the shrunk list.  [still_failing xs] must
    be true on entry; the result is a sublist on which it still
    holds, and from which no single element can be removed without
    losing the failure. *)

val of_seeds :
  check:(int -> Lockstep.divergence_info option) -> int list -> repro option
(** Shrink a diverging seed list: [check seed] co-simulates one seed
    and returns its first divergence, if any.  [None] when no seed in
    the list diverges.  [check] is memoized per seed, so the greedy
    pass costs at most one run per distinct seed. *)

val pp_repro : Format.formatter -> repro -> unit
