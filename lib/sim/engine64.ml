module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Obs = Bespoke_obs.Obs

(* Telemetry for the packed engine (no-ops unless Obs is enabled):
   each "eval" here re-evaluates one gate across all lanes at once. *)
let m_gate_evals = Obs.Metrics.counter "sim.packed_gate_evals"
let m_settles = Obs.Metrics.counter "sim.packed_settles"
let h_dirty = Obs.Metrics.histogram "sim.packed_dirty_set_size"

(* Up to 63 independent concrete simulations packed into dual-rail
   native-int words.  Rail [lo] has a lane's bit set when the lane's
   value can be 0, rail [hi] when it can be 1:

     0 -> (lo=1, hi=0)    1 -> (lo=0, hi=1)    X -> (lo=1, hi=1)

   Gate functions become whole-word boolean operations with exact
   Kleene (ternary) semantics per lane; lanes never interact.  The
   evaluation core is an event-driven dirty-queue levelized sweep. *)

let max_lanes = 63  (* OCaml native ints carry 63 usable bits *)

let op_buf = 0

and op_not = 1

and op_and = 2

and op_or = 3

and op_nand = 4

and op_nor = 5

and op_xor = 6

and op_xnor = 7

and op_mux = 8

type t = {
  net : Netlist.t;
  lanes : int;
  lane_mask : int;
  order : int array;
  opcode : int array;
  fi0 : int array;
  fi1 : int array;
  fi2 : int array;
  lo : int array;  (* rail: lane value can be 0 *)
  hi : int array;  (* rail: lane value can be 1 *)
  prev_lo : int array;
  prev_hi : int array;
  dffs : int array;
  dff_next_lo : int array;
  dff_next_hi : int array;
  toggles : int array array;  (* per lane, per gate *)
  possibly : int array;  (* lane bitmask per gate *)
  mutable committed : int;
  (* event-driven machinery: levels, CSR fanout, dirty queue, touched list *)
  level : int array;
  fan_start : int array;
  fan : int array;
  lvl_stack : int array array;
  lvl_len : int array;
  on_queue : Bytes.t;
  touched : int array;
  mutable touched_len : int;
  in_touched : Bytes.t;
  mutable full_commit : bool;
}

let create ?(lanes = max_lanes) net =
  if lanes < 1 || lanes > max_lanes then
    invalid_arg (Printf.sprintf "Engine64.create: lanes %d not in 1..63" lanes);
  let lane_mask = if lanes = max_lanes then -1 else (1 lsl lanes) - 1 in
  let ng = Netlist.gate_count net in
  let order = Netlist.levelize net in
  let opcode = Array.make ng (-1) in
  let fi0 = Array.make ng 0 in
  let fi1 = Array.make ng 0 in
  let fi2 = Array.make ng 0 in
  let dffs = ref [] in
  Array.iteri
    (fun id (g : Gate.t) ->
      (match g.op with
      | Gate.Dff _ ->
        dffs := id :: !dffs;
        fi0.(id) <- g.fanin.(0)
      | _ -> ());
      let set c =
        opcode.(id) <- c;
        (match Array.length g.fanin with
        | 0 -> ()
        | 1 -> fi0.(id) <- g.fanin.(0)
        | 2 ->
          fi0.(id) <- g.fanin.(0);
          fi1.(id) <- g.fanin.(1)
        | _ ->
          fi0.(id) <- g.fanin.(0);
          fi1.(id) <- g.fanin.(1);
          fi2.(id) <- g.fanin.(2))
      in
      match g.op with
      | Gate.Const _ | Gate.Input | Gate.Dff _ -> ()
      | Gate.Buf -> set op_buf
      | Gate.Not -> set op_not
      | Gate.And -> set op_and
      | Gate.Or -> set op_or
      | Gate.Nand -> set op_nand
      | Gate.Nor -> set op_nor
      | Gate.Xor -> set op_xor
      | Gate.Xnor -> set op_xnor
      | Gate.Mux -> set op_mux)
    net.Netlist.gates;
  let dffs = Array.of_list (List.rev !dffs) in
  let level = Array.make ng 0 in
  Array.iter
    (fun id ->
      let g = net.Netlist.gates.(id) in
      let m = ref 0 in
      Array.iter (fun f -> if level.(f) >= !m then m := level.(f)) g.fanin;
      level.(id) <- !m + 1)
    order;
  let nlevels =
    1 + Array.fold_left (fun acc l -> if l > acc then l else acc) 0 level
  in
  let counts = Array.make ng 0 in
  Array.iter
    (fun (g : Gate.t) ->
      if not (Gate.is_source g) then
        Array.iter (fun f -> counts.(f) <- counts.(f) + 1) g.fanin)
    net.Netlist.gates;
  let fan_start = Array.make (ng + 1) 0 in
  for i = 0 to ng - 1 do
    fan_start.(i + 1) <- fan_start.(i) + counts.(i)
  done;
  let fan = Array.make fan_start.(ng) 0 in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun id (g : Gate.t) ->
      if not (Gate.is_source g) then
        Array.iter
          (fun f ->
            fan.(fan_start.(f) + fill.(f)) <- id;
            fill.(f) <- fill.(f) + 1)
          g.fanin)
    net.Netlist.gates;
  let per_level = Array.make nlevels 0 in
  Array.iter (fun id -> per_level.(level.(id)) <- per_level.(level.(id)) + 1) order;
  let t =
    {
      net;
      lanes;
      lane_mask;
      order;
      opcode;
      fi0;
      fi1;
      fi2;
      lo = Array.make ng lane_mask;  (* all lanes X *)
      hi = Array.make ng lane_mask;
      prev_lo = Array.make ng lane_mask;
      prev_hi = Array.make ng lane_mask;
      dffs;
      dff_next_lo = Array.make (Array.length dffs) 0;
      dff_next_hi = Array.make (Array.length dffs) 0;
      toggles = Array.init lanes (fun _ -> Array.make ng 0);
      possibly = Array.make ng 0;
      committed = 0;
      level;
      fan_start;
      fan;
      lvl_stack = Array.map (fun n -> Array.make (max n 1) 0) per_level;
      lvl_len = Array.make nlevels 0;
      on_queue = Bytes.make ng '\000';
      touched = Array.make ng 0;
      touched_len = 0;
      in_touched = Bytes.make ng '\000';
      full_commit = true;
    }
  in
  Array.iter
    (fun id ->
      let l = t.level.(id) in
      t.lvl_stack.(l).(t.lvl_len.(l)) <- id;
      t.lvl_len.(l) <- t.lvl_len.(l) + 1;
      Bytes.unsafe_set t.on_queue id '\001')
    order;
  t

let netlist t = t.net
let lanes t = t.lanes

(* rail pair for a single Bit *)
let rails_of_bit = function
  | Bit.Zero -> (1, 0)
  | Bit.One -> (0, 1)
  | Bit.X -> (1, 1)

let bit_of_rails lo hi =
  match (lo, hi) with
  | 1, 0 -> Bit.Zero
  | 0, 1 -> Bit.One
  | 1, 1 -> Bit.X
  | _ -> invalid_arg "Engine64: invalid rail state (unwritten lane?)"

let value_lane t id lane =
  bit_of_rails ((t.lo.(id) lsr lane) land 1) ((t.hi.(id) lsr lane) land 1)

let mark_touched t id =
  if Bytes.unsafe_get t.in_touched id = '\000' then begin
    Bytes.unsafe_set t.in_touched id '\001';
    t.touched.(t.touched_len) <- id;
    t.touched_len <- t.touched_len + 1
  end

let schedule_readers t id =
  let s = t.fan_start.(id) and e = t.fan_start.(id + 1) in
  for k = s to e - 1 do
    let r = Array.unsafe_get t.fan k in
    if Bytes.unsafe_get t.on_queue r = '\000' then begin
      Bytes.unsafe_set t.on_queue r '\001';
      let l = Array.unsafe_get t.level r in
      t.lvl_stack.(l).(t.lvl_len.(l)) <- r;
      t.lvl_len.(l) <- t.lvl_len.(l) + 1
    end
  done

let write t id lo hi =
  if t.lo.(id) <> lo || t.hi.(id) <> hi then begin
    t.lo.(id) <- lo;
    t.hi.(id) <- hi;
    mark_touched t id;
    schedule_readers t id
  end

let set_gate_packed t id ~lo ~hi =
  (match t.net.Netlist.gates.(id).op with
  | Gate.Input -> ()
  | op ->
    invalid_arg
      (Printf.sprintf "Engine64.set_gate_packed: gate %d is %s, not an input" id
         (Gate.op_name op)));
  write t id (lo land t.lane_mask) (hi land t.lane_mask)

let set_gate_lane t id lane b =
  let l, h = rails_of_bit b in
  let m = lnot (1 lsl lane) in
  set_gate_packed t id
    ~lo:((t.lo.(id) land m) lor (l lsl lane))
    ~hi:((t.hi.(id) land m) lor (h lsl lane))

let pack_bits t (bits : Bit.t array) =
  (* [bits.(lane)] -> packed rails; lanes beyond [Array.length bits]
     are X, keeping unwritten lanes in a valid encoding *)
  let lo = ref 0 and hi = ref 0 in
  for lane = 0 to t.lanes - 1 do
    let l, h =
      if lane < Array.length bits then rails_of_bit bits.(lane) else (1, 1)
    in
    lo := !lo lor (l lsl lane);
    hi := !hi lor (h lsl lane)
  done;
  (!lo, !hi)

let find_input t name = Netlist.find_input t.net name

let set_input_lanes t name (vs : Bvec.t array) =
  let ids = find_input t name in
  Array.iter
    (fun v ->
      if Bvec.width v <> Array.length ids then
        invalid_arg
          (Printf.sprintf "Engine64.set_input_lanes %s: width mismatch" name))
    vs;
  let scratch = Array.make (Array.length vs) Bit.X in
  Array.iteri
    (fun i id ->
      Array.iteri (fun lane v -> scratch.(lane) <- v.(i)) vs;
      let lo, hi = pack_bits t scratch in
      set_gate_packed t id ~lo ~hi)
    ids

let read_lane t name lane =
  let ids = Netlist.find_name t.net name in
  Array.map (fun id -> value_lane t id lane) ids

let read_lane_int t name lane = Bvec.to_int (read_lane t name lane)

let compute t id =
  let c = t.opcode.(id) in
  let i0 = t.fi0.(id) in
  let a_lo = t.lo.(i0) and a_hi = t.hi.(i0) in
  if c = op_buf then (a_lo, a_hi)
  else if c = op_not then (a_hi, a_lo)
  else
    let i1 = t.fi1.(id) in
    let b_lo = t.lo.(i1) and b_hi = t.hi.(i1) in
    if c = op_and then (a_lo lor b_lo, a_hi land b_hi)
    else if c = op_or then (a_lo land b_lo, a_hi lor b_hi)
    else if c = op_nand then (a_hi land b_hi, a_lo lor b_lo)
    else if c = op_nor then (a_hi lor b_hi, a_lo land b_lo)
    else if c = op_xor then
      ((a_lo land b_lo) lor (a_hi land b_hi),
       (a_lo land b_hi) lor (a_hi land b_lo))
    else if c = op_xnor then
      ((a_lo land b_hi) lor (a_hi land b_lo),
       (a_lo land b_lo) lor (a_hi land b_hi))
    else begin
      (* mux: fi0 = sel, fi1 = a (sel=0), fi2 = b (sel=1);
         an X select merges the two data inputs *)
      let s_lo = a_lo and s_hi = a_hi in
      let i2 = t.fi2.(id) in
      let c_lo = t.lo.(i2) and c_hi = t.hi.(i2) in
      let s0 = s_lo land lnot s_hi in
      let s1 = s_hi land lnot s_lo in
      let sx = s_lo land s_hi in
      ( (s0 land b_lo) lor (s1 land c_lo) lor (sx land (b_lo lor c_lo)),
        (s0 land b_hi) lor (s1 land c_hi) lor (sx land (b_hi lor c_hi)) )
    end

let eval_full t =
  let order = t.order in
  for k = 0 to Array.length order - 1 do
    let id = Array.unsafe_get order k in
    let lo, hi = compute t id in
    t.lo.(id) <- lo;
    t.hi.(id) <- hi
  done

let flush_dirty t =
  let counting = Obs.enabled () in
  let drained = ref 0 in
  let nl = Array.length t.lvl_len in
  for l = 1 to nl - 1 do
    let stack = t.lvl_stack.(l) in
    let n = t.lvl_len.(l) in
    if counting then drained := !drained + n;
    for k = 0 to n - 1 do
      let id = Array.unsafe_get stack k in
      Bytes.unsafe_set t.on_queue id '\000';
      let lo, hi = compute t id in
      if t.lo.(id) <> lo || t.hi.(id) <> hi then begin
        t.lo.(id) <- lo;
        t.hi.(id) <- hi;
        mark_touched t id;
        schedule_readers t id
      end
    done;
    t.lvl_len.(l) <- 0
  done;
  if counting then begin
    Obs.Metrics.add m_gate_evals !drained;
    Obs.Metrics.incr m_settles;
    Obs.Metrics.observe h_dirty !drained
  end

let eval t = flush_dirty t

let clear_dirty t =
  Array.fill t.lvl_len 0 (Array.length t.lvl_len) 0;
  Bytes.fill t.on_queue 0 (Bytes.length t.on_queue) '\000'

let clear_touched t =
  t.touched_len <- 0;
  Bytes.fill t.in_touched 0 (Bytes.length t.in_touched) '\000'

let reset t =
  clear_dirty t;
  clear_touched t;
  Array.iteri
    (fun id (g : Gate.t) ->
      match g.op with
      | Gate.Const b ->
        let l, h = rails_of_bit b in
        t.lo.(id) <- (if l = 1 then t.lane_mask else 0);
        t.hi.(id) <- (if h = 1 then t.lane_mask else 0)
      | Gate.Input ->
        t.lo.(id) <- t.lane_mask;
        t.hi.(id) <- t.lane_mask
      | Gate.Dff init ->
        let l, h = rails_of_bit init in
        t.lo.(id) <- (if l = 1 then t.lane_mask else 0);
        t.hi.(id) <- (if h = 1 then t.lane_mask else 0)
      | _ -> ())
    t.net.Netlist.gates;
  eval_full t;
  Array.blit t.lo 0 t.prev_lo 0 (Array.length t.lo);
  Array.blit t.hi 0 t.prev_hi 0 (Array.length t.hi);
  t.committed <- 0;
  t.full_commit <- true

let step t =
  let dffs = t.dffs in
  for i = 0 to Array.length dffs - 1 do
    let d = t.fi0.(dffs.(i)) in
    t.dff_next_lo.(i) <- t.lo.(d);
    t.dff_next_hi.(i) <- t.hi.(d)
  done;
  for i = 0 to Array.length dffs - 1 do
    write t dffs.(i) t.dff_next_lo.(i) t.dff_next_hi.(i)
  done;
  eval t

let commit_one t id active =
  let cur_lo = t.lo.(id) and cur_hi = t.hi.(id) in
  let changed =
    ((cur_lo lxor t.prev_lo.(id)) lor (cur_hi lxor t.prev_hi.(id))) land active
  in
  if changed <> 0 then begin
    let lanes = t.lanes in
    for lane = 0 to lanes - 1 do
      if changed land (1 lsl lane) <> 0 then
        t.toggles.(lane).(id) <- t.toggles.(lane).(id) + 1
    done
  end;
  t.possibly.(id) <-
    t.possibly.(id) lor changed lor (cur_lo land cur_hi land active);
  t.prev_lo.(id) <- cur_lo;
  t.prev_hi.(id) <- cur_hi

(* [active]: lane bitmask to charge activity to.  Lanes must only ever
   leave the active set (a lane re-entering after a masked commit
   would charge the whole gap as a single transition). *)
let commit_cycle ?active t =
  let active =
    (match active with None -> t.lane_mask | Some a -> a land t.lane_mask)
  in
  if t.full_commit then begin
    for id = 0 to Array.length t.lo - 1 do
      commit_one t id active
    done;
    t.full_commit <- false
  end
  else
    for k = 0 to t.touched_len - 1 do
      commit_one t (Array.unsafe_get t.touched k) active
    done;
  clear_touched t;
  t.committed <- t.committed + 1

let cycles_committed t = t.committed
let toggle_counts_lane t lane = Array.copy t.toggles.(lane)

let possibly_toggled_lane t lane =
  Array.map (fun m -> m land (1 lsl lane) <> 0) t.possibly

let sync_prev t =
  Array.blit t.lo 0 t.prev_lo 0 (Array.length t.lo);
  Array.blit t.hi 0 t.prev_hi 0 (Array.length t.hi)
