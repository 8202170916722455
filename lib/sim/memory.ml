module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Obs = Bespoke_obs.Obs

(* Memory words copied out by snapshots (Obs on only): a snapshot
   copies the pages written since the previous snapshot or restore,
   and nothing else. *)
let m_snapshot_words = Obs.Metrics.counter "sim.memory.snapshot_words"

(* Word [w] is held as two rails over its [width] bits: [rails.(2w)]
   has bit i set when bit i can be 0, [rails.(2w+1)] when it can be 1
   (X sets both; a stored bit never has neither).

   A snapshot is an array of pages, page [p] holding the rails of
   words [p lsl shift] to [((p + 1) lsl shift) - 1] laid out as in
   [rails].  A page is never written once made, so snapshots share
   pages freely.  [base] is the snapshot the live memory was last
   captured into or restored from, and [dirty] flags the pages written
   since: a clean page equals [base]'s, so the next snapshot reuses
   it and copies out only the dirty ones. *)
type snapshot = int array array

type t = {
  rails : int array;
  words : int;
  width : int;
  full : int;
  shift : int;  (* log2 of the words per page *)
  dirty : Bytes.t;  (* per page: written since [base] was taken *)
  mutable base : snapshot;  (* empty until the first snapshot or restore *)
}

(* 32 words per page *)
let page_bits = 5

let is_pow2 n = n > 0 && n land (n - 1) = 0
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let rails_of_bit full = function
  | Bit.Zero -> (full, 0)
  | Bit.One -> (0, full)
  | Bit.X -> (full, full)

let mark_dirty t w = Bytes.unsafe_set t.dirty (w lsr t.shift) '\001'

let set_rails t w lo hi =
  let w = w land (t.words - 1) in
  mark_dirty t w;
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
  let shift = min page_bits (log2 words) in
  let t =
    {
      rails = Array.make (2 * words) 0;
      words;
      width;
      full;
      shift;
      dirty = Bytes.make (words lsr shift) '\001';
      base = [||];
    }
  in
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
  mark_dirty t w;
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
        mark_dirty t w;
        t.rails.(2 * w) <- t.rails.(2 * w) land keep lor in_lo;
        t.rails.((2 * w) + 1) <- t.rails.((2 * w) + 1) land keep lor in_hi)

let pages t = t.words lsr t.shift

(* A page's rails as one int array: [2 lsl shift] ints. *)
let page_ints t = 2 lsl t.shift

let snapshot t =
  let n = page_ints t in
  let copied = ref 0 in
  let s =
    Array.init (pages t) (fun p ->
        if Bytes.unsafe_get t.dirty p = '\000' then t.base.(p)
        else begin
          Bytes.unsafe_set t.dirty p '\000';
          incr copied;
          Array.sub t.rails (p * n) n
        end)
  in
  t.base <- s;
  if Obs.enabled () then Obs.Metrics.add m_snapshot_words (!copied lsl t.shift);
  s

(* Same geometry: as many pages (at least one), of as many ints. *)
let same_shape (a : snapshot) (b : snapshot) =
  Array.length a = Array.length b && Array.length a.(0) = Array.length b.(0)

(* [s] has [t]'s geometry. *)
let fits t (s : snapshot) = Array.length s = pages t && Array.length s.(0) = page_ints t

let restore t s =
  if not (fits t s) then invalid_arg "Memory.restore: size mismatch";
  let n = page_ints t in
  Array.iteri
    (fun p page ->
      if Bytes.unsafe_get t.dirty p <> '\000' || t.base.(p) != page then
        Array.blit page 0 t.rails (p * n) n)
    s;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.base <- s

let page_subsumes g s =
  g == s
  ||
  let rec go i = i < 0 || (s.(i) land lnot g.(i) = 0 && go (i - 1)) in
  go (Array.length g - 1)

(* The merged page is one of the two whenever it subsumes the other,
   so merging states that agree keeps their pages shared. *)
let merge_snapshot a b =
  if not (same_shape a b) then invalid_arg "Memory.merge_snapshot: size mismatch";
  Array.map2
    (fun x y ->
      if page_subsumes x y then x
      else if page_subsumes y x then y
      else Array.map2 ( lor ) x y)
    a b

let subsumes ~general ~specific =
  same_shape general specific && Array.for_all2 page_subsumes general specific

let equal_snapshot (a : snapshot) b =
  same_shape a b && Array.for_all2 (fun x y -> x == y || x = y) a b

let diff ~base t =
  if not (fits t base) then invalid_arg "Memory.diff: size mismatch";
  let out = ref [] in
  for p = pages t - 1 downto 0 do
    (* a clean page still holds [t.base]'s contents *)
    if Bytes.unsafe_get t.dirty p <> '\000' || t.base.(p) != base.(p) then begin
      let page = base.(p) in
      for i = (1 lsl t.shift) - 1 downto 0 do
        let w = (p lsl t.shift) + i in
        let lo = t.rails.(2 * w) and hi = t.rails.((2 * w) + 1) in
        if lo <> page.(2 * i) || hi <> page.((2 * i) + 1) then
          out := w :: lo :: hi :: !out
      done
    end
  done;
  Array.of_list !out

let patch base (d : int array) ~pos ~len =
  let s = Array.copy base in
  let fresh = Array.make (Array.length s) false in
  let shift = log2 (Array.length s.(0) / 2) in
  for i = 0 to len - 1 do
    let w = d.(pos + (3 * i)) in
    let p = w lsr shift and o = 2 * (w land ((1 lsl shift) - 1)) in
    if not fresh.(p) then begin
      s.(p) <- Array.copy s.(p);
      fresh.(p) <- true
    end;
    s.(p).(o) <- d.(pos + (3 * i) + 1);
    s.(p).(o + 1) <- d.(pos + (3 * i) + 2)
  done;
  s

(* Two ternary bits are consistent unless their value sets are
   disjoint, i.e. one is known 0 and the other known 1. *)
let consistent_snapshots a b =
  same_shape a b
  && Array.for_all2
       (fun x y ->
         x == y
         ||
         let rec go w =
           w < 0
           ||
           let lo = x.(2 * w) land y.(2 * w)
           and hi = x.((2 * w) + 1) land y.((2 * w) + 1) in
           lo lor hi = x.(2 * w) lor x.((2 * w) + 1) && go (w - 1)
         in
         go ((Array.length x / 2) - 1))
       a b

let shared_pages a b =
  if not (same_shape a b) then 0
  else Array.fold_left ( + ) 0 (Array.map2 (fun x y -> Bool.to_int (x == y)) a b)
