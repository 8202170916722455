module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist

let union_toggled = function
  | [] -> invalid_arg "Multi.union_toggled: empty"
  | first :: rest ->
    let acc = Array.copy first in
    List.iter
      (fun t ->
        if Array.length t <> Array.length acc then
          invalid_arg "Multi.union_toggled: size mismatch";
        Array.iteri (fun i b -> if b then acc.(i) <- true) t)
      rest;
    acc

let supported ~design_toggled ~app_toggled =
  let ok = ref true in
  Array.iteri
    (fun i b -> if b && not design_toggled.(i) then ok := false)
    app_toggled;
  !ok

let tailor_multi net ~reports =
  match reports with
  | [] -> invalid_arg "Multi.tailor_multi: no applications"
  | (_, constants) :: _ ->
    let toggled = union_toggled (List.map fst reports) in
    Cut.tailor net ~possibly_toggled:toggled ~constants

(* ------------------------------------------------------------------ *)
(* Fig 13 C(n,N) sweep: enumerate every nonempty application subset,
   union the member bitsets, and track the extreme (min/max) usable
   gate count per subset size.  The enumeration is embarrassingly
   parallel, so it is chunked across the Pool; chunks are merged in
   ascending subset order with strict comparisons, which reproduces
   the sequential scan's tie-break (smallest subset wins a tie)
   bit-for-bit at any job count. *)

let bitset_of (toggled : bool array) =
  let words = Array.make ((Array.length toggled + 62) / 63) 0 in
  Array.iteri
    (fun i b ->
      if b then words.(i / 63) <- words.(i / 63) lor (1 lsl (i mod 63)))
    toggled;
  words

let popcount words =
  Array.fold_left
    (fun acc w ->
      let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
      go w acc)
    0 words

let sweep ?jobs (sets : int array array) =
  let n = Array.length sets in
  if n = 0 then invalid_arg "Multi.sweep: no applications";
  if n > 24 then invalid_arg "Multi.sweep: 2^n subsets is too many";
  let words = Array.length sets.(0) in
  Array.iter
    (fun s ->
      if Array.length s <> words then invalid_arg "Multi.sweep: size mismatch")
    sets;
  let total = (1 lsl n) - 1 in
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  (* more chunks than domains, so domains that finish early take more
     from the shared queue and the load evens out *)
  let nchunks = min total (max 1 (jobs * 8)) in
  let bounds =
    List.init nchunks (fun c ->
        let lo = 1 + (total * c / nchunks) in
        let hi = total * (c + 1) / nchunks in
        (lo, hi))
  in
  let scan (lo, hi) =
    let best = Array.make (n + 1) (max_int, 0) in
    let worst = Array.make (n + 1) (min_int, 0) in
    let u = Array.make words 0 in
    for subset = lo to hi do
      Array.fill u 0 words 0;
      let k = ref 0 in
      for i = 0 to n - 1 do
        if subset land (1 lsl i) <> 0 then begin
          incr k;
          let s = sets.(i) in
          for w = 0 to words - 1 do
            u.(w) <- u.(w) lor s.(w)
          done
        end
      done;
      let count = popcount u in
      if count < fst best.(!k) then best.(!k) <- (count, subset);
      if count > fst worst.(!k) then worst.(!k) <- (count, subset)
    done;
    (best, worst)
  in
  let parts = Pool.map ~jobs scan bounds in
  let best = Array.make (n + 1) (max_int, 0) in
  let worst = Array.make (n + 1) (min_int, 0) in
  List.iter
    (fun (b, w) ->
      for k = 0 to n do
        if fst b.(k) < fst best.(k) then best.(k) <- b.(k);
        if fst w.(k) > fst worst.(k) then worst.(k) <- w.(k)
      done)
    parts;
  (best, worst)

let usable_gate_count net toggled =
  let n = ref 0 in
  Array.iteri
    (fun id (g : Gate.t) ->
      match g.Gate.op with
      | Gate.Input | Gate.Const _ -> ()
      | _ -> if toggled.(id) then incr n)
    net.Netlist.gates;
  !n
