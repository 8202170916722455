module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec

(* Word [w] is held as two rails over its [width] bits: [rails.(2w)]
   has bit i set when bit i can be 0, [rails.(2w+1)] when it can be 1
   (X sets both; a stored bit never has neither).  A snapshot is a copy
   of the rail array. *)
type t = { rails : int array; words : int; width : int; full : int }
type snapshot = int array

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rails_of_bit full = function
  | Bit.Zero -> (full, 0)
  | Bit.One -> (0, full)
  | Bit.X -> (full, full)

let set_rails t w lo hi =
  let w = w land (t.words - 1) in
  t.rails.(2 * w) <- lo;
  t.rails.((2 * w) + 1) <- hi

let clear t b =
  let lo, hi = rails_of_bit t.full b in
  for w = 0 to t.words - 1 do
    set_rails t w lo hi
  done

let create ~words ~width ~init =
  if not (is_pow2 words) then
    invalid_arg "Memory.create: words not a power of 2";
  if width > 62 then invalid_arg "Memory.create: width above 62";
  let full = (1 lsl width) - 1 in
  let t = { rails = Array.make (2 * words) 0; words; width; full } in
  clear t init;
  t

let words t = t.words
let width t = t.width

(* Rails of a ternary vector, bit i of the vector at bit i. *)
let rails_of_bvec (v : Bvec.t) =
  let lo = ref 0 and hi = ref 0 in
  Array.iteri
    (fun i b ->
      match b with
      | Bit.Zero -> lo := !lo lor (1 lsl i)
      | Bit.One -> hi := !hi lor (1 lsl i)
      | Bit.X -> lo := !lo lor (1 lsl i); hi := !hi lor (1 lsl i))
    v;
  (!lo, !hi)

let bvec_of_rails width lo hi =
  Array.init width (fun i ->
      match ((lo lsr i) land 1, (hi lsr i) land 1) with
      | 1, 0 -> Bit.Zero
      | 0, 1 -> Bit.One
      | _ -> Bit.X)

let load t w (v : Bvec.t) =
  if Bvec.width v <> t.width then invalid_arg "Memory.load: width mismatch";
  let lo, hi = rails_of_bvec v in
  set_rails t w lo hi

let load_int t w n = set_rails t w (lnot n land t.full) (n land t.full)

let read_word t w =
  let w = w land (t.words - 1) in
  bvec_of_rails t.width t.rails.(2 * w) t.rails.((2 * w) + 1)

let read_word_int t w =
  let w = w land (t.words - 1) in
  let lo = t.rails.(2 * w) and hi = t.rails.((2 * w) + 1) in
  if lo land hi = 0 then Some hi else None

let write_masked_int t w ~data ~mask =
  let w = w land (t.words - 1) in
  let mask = mask land t.full in
  let keep = lnot mask in
  t.rails.(2 * w) <- t.rails.(2 * w) land keep lor (lnot data land mask);
  t.rails.((2 * w) + 1) <- t.rails.((2 * w) + 1) land keep lor (data land mask)

let set_x_range t ~lo ~hi =
  for w = lo to hi do
    set_rails t w t.full t.full
  done

(* Indices selectable by a ternary address (address wraps modulo the
   size, so only the low log2(words) bits matter): the known bits as a
   base index, and the X bits as a mask. *)
let candidate_indices t (addr : Bvec.t) =
  let base = ref 0 and free = ref 0 in
  let i = ref 0 in
  while 1 lsl !i < t.words do
    (if !i < Bvec.width addr then
       match addr.(!i) with
       | Bit.Zero -> ()
       | Bit.One -> base := !base lor (1 lsl !i)
       | Bit.X -> free := !free lor (1 lsl !i));
    incr i
  done;
  (!base, !free)

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

(* [f w] for every index the address pattern could select; more than
   10 X index bits select every word. *)
let iter_candidates t base free f =
  if popcount free > 10 then
    for w = 0 to t.words - 1 do
      f w
    done
  else begin
    (* the non-empty subsets of [free], in increasing order *)
    f base;
    let sub = ref (-free land free) in
    while !sub <> 0 do
      f (base lor !sub);
      sub := (!sub - free) land free
    done
  end

let read t (addr : Bvec.t) =
  let base, free = candidate_indices t addr in
  let lo = ref 0 and hi = ref 0 in
  iter_candidates t base free (fun w ->
      lo := !lo lor t.rails.(2 * w);
      hi := !hi lor t.rails.((2 * w) + 1));
  bvec_of_rails t.width !lo !hi

let write t ~addr ~data ~mask ~en =
  if Bvec.width data <> t.width || Bvec.width mask <> t.width then
    invalid_arg "Memory.write: width mismatch";
  match en with
  | Bit.Zero -> ()
  | Bit.One | Bit.X ->
    let d_lo, d_hi = rails_of_bvec data and m_lo, m_hi = rails_of_bvec mask in
    let base, free = candidate_indices t addr in
    (* A stored bit takes the data where the mask can be 1 and keeps
       its old value where the mask can be 0.  A write that may not
       happen, or lands on one of several candidates, always keeps the
       old value as a possibility. *)
    let keep = if Bit.equal en Bit.One && free = 0 then m_lo else t.full in
    let in_lo = d_lo land m_hi and in_hi = d_hi land m_hi in
    iter_candidates t base free (fun w ->
        t.rails.(2 * w) <- t.rails.(2 * w) land keep lor in_lo;
        t.rails.((2 * w) + 1) <- t.rails.((2 * w) + 1) land keep lor in_hi)

let snapshot t = Array.copy t.rails

let restore t s =
  if Array.length s <> Array.length t.rails then
    invalid_arg "Memory.restore: size mismatch";
  Array.blit s 0 t.rails 0 (Array.length s)

let merge_snapshot a b =
  if Array.length a <> Array.length b then
    invalid_arg "Memory.merge_snapshot: size mismatch";
  Array.map2 ( lor ) a b

let subsumes ~general ~specific =
  Array.length general = Array.length specific
  && Array.for_all2 (fun g s -> s land lnot g = 0) general specific

let equal_snapshot (a : snapshot) b = a = b

(* Two ternary bits are consistent unless their value sets are
   disjoint, i.e. one is known 0 and the other known 1. *)
let consistent_snapshots a b =
  Array.length a = Array.length b
  &&
  let rec go w =
    w < 0
    ||
    let lo = a.(2 * w) land b.(2 * w)
    and hi = a.((2 * w) + 1) land b.((2 * w) + 1) in
    lo lor hi = a.(2 * w) lor a.((2 * w) + 1) && go (w - 1)
  in
  go ((Array.length a / 2) - 1)
