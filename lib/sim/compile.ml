module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Serial = Bespoke_netlist.Serial
module Obs = Bespoke_obs.Obs

(* Telemetry: compilation/cache traffic and per-settle execution
   counts ("ops per cycle" = instr_execs / cycles).  All hooks are
   flag-guarded so the disabled cost is one check per settle. *)
let m_cache_hits = Obs.Metrics.counter "sim.compile.cache_hits"
let m_cache_misses = Obs.Metrics.counter "sim.compile.cache_misses"
let m_instr_execs = Obs.Metrics.counter "sim.compile.instr_execs"
let m_settles = Obs.Metrics.counter "sim.compile.settles"
let m_cycles = Obs.Metrics.counter "sim.compile.cycles"
let h_active = Obs.Metrics.histogram "sim.compile.execs_per_settle"

(* Program size, summed over cold compiles: whether a run's designs
   compiled to words or fell back to per-gate instructions. *)
let m_instructions = Obs.Metrics.counter "sim.compile.instructions"
let m_word_gates = Obs.Metrics.counter "sim.compile.word_gates"
let m_adders = Obs.Metrics.counter "sim.compile.adders"

(* Assumption-check programs lowered (not found with their program). *)
let m_lowerings = Obs.Metrics.counter "sim.compile.check_lowerings"

(* The cycle hook's time, sampled on every 64th committed cycle, and
   a settle's, sampled on every [eval_stride]th [eval] of an instance:
   a prime, so the samples rotate through the two or three settles of
   a cycle instead of always landing on the same one. *)
let h_hook = Obs.Metrics.histogram "sim.hook_ns"
let h_eval = Obs.Metrics.histogram "sim.eval_ns"
let eval_stride = 61

(* Gate opcodes. *)
let op_buf = 0

and op_not = 1

and op_and = 2

and op_or = 3

and op_nand = 4

and op_nor = 5

and op_xor = 6

and op_xnor = 7

and op_mux = 8

let opcode_of : Gate.op -> int = function
  | Gate.Buf -> op_buf
  | Gate.Not -> op_not
  | Gate.And -> op_and
  | Gate.Or -> op_or
  | Gate.Nand -> op_nand
  | Gate.Nor -> op_nor
  | Gate.Xor -> op_xor
  | Gate.Xnor -> op_xnor
  | Gate.Mux -> op_mux
  | Gate.Const _ | Gate.Input | Gate.Dff _ -> -1

(* An operand is a width-w column of gate values, materialized as a
   pair of dual-rail words.  Columns that land as consecutive bits of
   one state word are a shift; single-gate columns broadcast; anything
   else gathers bit by bit through precompiled locations.  This is the
   compile-time representation; the program stores operands encoded
   into ints (see [enc_op]). *)
type operand =
  | OAligned of { c : int; sh : int }
  | OBcast of { c : int; sh : int }
  | OGather of int array  (* per output bit: (chunk lsl 6) lor bit *)

(* Compile-time IR, serialized to the flat [code] array below. *)
type instr =
  | I1 of { op : int; a : operand; dst : int; mask : int }
  | I2 of { op : int; a : operand; b : operand; dst : int; mask : int }
  | IMuxS of {
      sel_c : int;
      sel_sh : int;
      a : operand;
      b : operand;
      dst : int;
      mask : int;
    }
  | IMuxV of { sel : operand; a : operand; b : operand; dst : int; mask : int }
  | IAdd of {
      x : operand;
      y : operand;
      cin_c : int;
      cin_sh : int;
      d_axb : int;
      d_out : int;
      d_t1 : int;
      d_t2 : int;
      d_cout : int;
      mask : int;
    }
  | IGate of {
      op : int;
      l0 : int;
      l1 : int;
      l2 : int;
      dst : int;  (* packed destination location *)
      dg : int;  (* destination gate id *)
    }

(* ---------- packed assumption checks (types) ---------- *)

type source = Net of int | Tie of Bit.t
type check = { c_op : Gate.op; c_fanin : source array; c_assumed : Bit.t }

(* A lowered check program, bound to no instance: lanes grouped by
   opcode into words of up to 63.  Word [w] has opcode [k_op.(w)],
   fanin columns [k_col.(w) ..] (one per operand) and per-lane
   assumed-0/1/X masks.  Column [j] is its tie rails [col_lo.(j)]/[col_hi.(j)] ORed with
   three-int segments of [segs]:
   - runs [col_seg.(j) .. col_bc.(j) - 1] (chunk, source bit, length
     and first lane packed as [len lsl 6 lor lane]): consecutive state
     bits into consecutive lanes, one shift and one mask each;
   - broadcasts [col_bc.(j) .. col_seg.(j + 1) - 1] (chunk, source
     bit, lane mask): one state bit read by several neighbouring
     lanes. *)
type lowered = {
  k_op : int array;
  k_col : int array;
  k_a0 : int array;
  k_a1 : int array;
  k_ax : int array;
  col_lo : int array;
  col_hi : int array;
  col_seg : int array;
  col_bc : int array;
  segs : int array;
}

(* The compiled design, immutable but for its check-lowering cache and
   shared by every instance simulating a netlist with the same design
   hash (including across domains).
   Instructions live in one flat int array [code] indexed through
   [ioff], so the dispatch loop chases no pointers:
     word ops    [opc; dst; mask; operands...]         opc 0..9
     adder       [10; mask; cin; 5 dsts; x; y]
     scalar gate [11+op; dstloc; dstgate; fanin locs]
   Word operands are ints: low 2 bits select aligned (0) / broadcast
   (1) / gather (2); aligned and broadcast carry chunk and shift,
   gather carries an offset into [gpool] (length-prefixed location
   list). *)
type program = {
  ng : int;
  nchunks : int;
  ninstr : int;
  ch_mask : int array;
  ch_gidx : int array;  (* chunk -> offset of its bit->gate map *)
  ch_bitidx : Bytes.t;  (* chunks whose readers are tracked per gate *)
  gid_tbl : int array;  (* ch_gidx.(c) + bit -> gate id *)
  g_chunk : int array;
  g_bit : int array;
  code : int array;
  ioff : int array;  (* instr index -> offset into [code] *)
  gpool : int array;
  rd_start : int array;  (* CSR: word chunk -> (reader, read-mask) *)
  rd_instr : int array;  (* readers as pending slots ([pend_slot]) *)
  rd_mask : int array;
  rb_start : int array;  (* CSR: gate -> readers (bit-indexed chunks) *)
  rb : int array;
  rs_chunk : int array;  (* reset plan: source chunks and their rails *)
  rs_lo : int array;
  rs_hi : int array;
  dc_chunk : int array;  (* clock-edge plan: DFF chunk and its D column *)
  dc_src : operand array;
  dc_mask : int array;
  dff_ids : int array;
  n_word_gates : int;
  n_adders : int;
  lowerings : (check array, lowered) Ephemeron.K1.t list Atomic.t;
      (* recent check lowerings, keyed (weakly) by the check array *)
}

(* Toggle counters are bit-sliced: plane i of a chunk holds bit i of
   every lane's count, so charging a whole changed-mask costs an
   amortized two word ops instead of a per-bit loop. *)
let planes = 32

type t = {
  net : Netlist.t;
  p : program;
  lo : int array;  (* dual-rail state: can-be-0 / can-be-1, per chunk *)
  hi : int array;
  prev_lo : int array;
  prev_hi : int array;
  poss_w : int array;  (* per-chunk mask of already possibly-toggled bits *)
  tplanes : int array;  (* bit-sliced toggle counters, [planes] per chunk *)
  possibly : Bytes.t;
  pend : int array;  (* pending-instruction bitmask, topo order *)
  touched : int array;  (* chunks written-with-change since last commit *)
  mutable touched_len : int;
  in_touched : Bytes.t;
  mutable committed : int;
  mutable evals : int;  (* [eval] calls while Obs was on *)
  mutable full_commit : bool;
  mutable on_first_possibly : (int -> unit) option;
  mutable on_cycle : (int -> unit) option;
      (* probe hook: called after every [commit_cycle] with the new
         committed count (guard shadow watchers) *)
  mutable sc_lo : int;  (* operand-load scratch, avoids tuple allocation *)
  mutable sc_hi : int;
  dff_next_lo : int array;
  dff_next_hi : int array;
  from_cache : bool;
}

let max_w = 63

(* Trailing-zero count of a one-bit word, without a branch: the de
   Bruijn multiply sends each of the 63 one-bit words to a distinct
   slot in the product's top six bits. *)
let debruijn = 0x03f79d71b4ca8b09

let ntz_slot =
  let tbl = Array.make 64 0 in
  for i = 0 to max_w - 1 do
    tbl.(((1 lsl i) * debruijn) lsr 57) <- i
  done;
  tbl

let ntz b = Array.unsafe_get ntz_slot ((b * debruijn) lsr 57)

(* ---------- compilation ---------- *)

type kind =
  | KAdd of int  (* ripple-carry chain of w repetitions (5 gates each) *)
  | KRun of int  (* w consecutive same-op gates, constant-stride columns *)
  | KSeq of int  (* w consecutive DFF or input bits sharing one word *)

let loc_pack c b = (c lsl 6) lor b

(* instruction [i]'s pending bit, packed as (word lsl 6) lor bit *)
let pend_slot i = loc_pack (i / 63) (i mod 63)

let compile net =
  let ng = Netlist.gate_count net in
  let gates = net.Netlist.gates in
  (* Clustering relies on every combinational gate reading strictly
     lower ids; netlists built by the RTL DSL, the fuzzers and
     resynthesis satisfy this.  Otherwise every gate stays a
     singleton. *)
  let forward_ok =
    let ok = ref true in
    Array.iteri
      (fun id (g : Gate.t) ->
        if not (Gate.is_source g) then
          Array.iter (fun f -> if f >= id then ok := false) g.fanin)
      gates;
    !ok
  in
  let start : kind option array = Array.make (max ng 1) None in
  let claimed = Bytes.make (max ng 1) '\000' in
  let is_claimed i = Bytes.get claimed i <> '\000' in
  let claim i n = Bytes.fill claimed i n '\001' in
  if forward_ok then begin
    (* Ripple-carry adders: the RTL lowering emits, per bit,
       axb = Xor(x,y); out = Xor(axb,c); t1 = And(x,y);
       t2 = And(c,axb); c' = Or(t1,t2), with the carry chain linking
       consecutive 5-gate repetitions. *)
    let add_bit_at i ~base ~carry =
      i + 4 < ng
      && (not (is_claimed i))
      &&
      let axb = gates.(i)
      and out = gates.(i + 1)
      and t1 = gates.(i + 2)
      and t2 = gates.(i + 3)
      and c' = gates.(i + 4) in
      match (axb.op, out.op, t1.op, t2.op, c'.op) with
      | Gate.Xor, Gate.Xor, Gate.And, Gate.And, Gate.Or ->
        Array.length axb.fanin = 2
        && axb.fanin.(0) < base
        && axb.fanin.(1) < base
        && out.fanin.(0) = i
        && out.fanin.(1)
           = (match carry with Some c -> c | None -> out.fanin.(1))
        && (match carry with Some _ -> true | None -> out.fanin.(1) < base)
        && t1.fanin.(0) = axb.fanin.(0)
        && t1.fanin.(1) = axb.fanin.(1)
        && t2.fanin.(0) = out.fanin.(1)
        && t2.fanin.(1) = i
        && c'.fanin.(0) = i + 2
        && c'.fanin.(1) = i + 3
      | _ -> false
    in
    let i = ref 0 in
    while !i < ng do
      if (not (is_claimed !i)) && add_bit_at !i ~base:!i ~carry:None then begin
        let base = !i in
        let w = ref 1 in
        while
          !w < 60
          && add_bit_at
               (base + (5 * !w))
               ~base
               ~carry:(Some (base + (5 * !w) - 1))
        do
          incr w
        done;
        if !w >= 2 then begin
          start.(base) <- Some (KAdd !w);
          claim base (5 * !w);
          i := base + (5 * !w)
        end
        else incr i
      end
      else incr i
    done;
    (* Vector runs: maximal consecutive-id same-op gates whose fanin
       columns are arithmetic progressions through lower ids. *)
    let i = ref 0 in
    while !i < ng do
      let g = gates.(!i) in
      let nf = Array.length g.fanin in
      if (not (is_claimed !i)) && (not (Gate.is_source g)) && nf > 0 then begin
        let base = !i in
        let strides = Array.make nf 0 in
        let w = ref 1 in
        let fits k =
          (* does gate base+k extend the run? *)
          base + k < ng
          && (not (is_claimed (base + k)))
          &&
          let h = gates.(base + k) in
          Gate.op_equal h.op g.op
          && Array.length h.fanin = nf
          &&
          let ok = ref true in
          for j = 0 to nf - 1 do
            if k = 1 then strides.(j) <- h.fanin.(j) - g.fanin.(j);
            if h.fanin.(j) <> g.fanin.(j) + (strides.(j) * k) then ok := false;
            if h.fanin.(j) >= base then ok := false
          done;
          !ok
        in
        while !w < max_w && fits !w do
          incr w
        done;
        if !w >= 2 then begin
          start.(base) <- Some (KRun !w);
          claim base !w;
          i := base + !w
        end
        else incr i
      end
      else incr i
    done
  end;
  (* DFF and input-port bits: consecutive ids share one word. *)
  let i = ref 0 in
  while !i < ng do
    if not (is_claimed !i) then begin
      let seq_op (g : Gate.t) =
        match g.op with
        | Gate.Dff _ -> 1
        | Gate.Input -> 2
        | _ -> 0
      in
      let k = seq_op gates.(!i) in
      if k <> 0 then begin
        let base = !i in
        let w = ref 1 in
        while
          !w < max_w
          && base + !w < ng
          && (not (is_claimed (base + !w)))
          && seq_op gates.(base + !w) = k
        do
          incr w
        done;
        if !w >= 2 then start.(base) <- Some (KSeq !w);
        claim base !w;
        i := base + !w
      end
      else incr i
    end
    else incr i
  done;
  (* Pass 1: assign every gate a (chunk, bit) location.  Gates inside
     a discovered structure share a word; leftover singletons are
     packed up to 63 per word by category (combinational / DFF /
     source), keeping the state vector small and commits cheap.
     Readers of packed-singleton bits are scheduled through per-gate
     lists ([rb]); word-structure chunks use per-chunk reader lists
     with read-masks ([rd]), so a changed bit only wakes instructions
     that actually read it. *)
  let g_chunk = Array.make (max ng 1) 0 in
  let g_bit = Array.make (max ng 1) 0 in
  let ch_mask = ref [] and ch_gids = ref [] and ch_bit = ref [] in
  let nchunks = ref 0 in
  let new_chunk gids ~bitidx =
    let c = !nchunks in
    incr nchunks;
    let w = Array.length gids in
    ch_mask := ((1 lsl w) - 1) :: !ch_mask;
    ch_gids := gids :: !ch_gids;
    ch_bit := bitidx :: !ch_bit;
    Array.iteri
      (fun b g ->
        g_chunk.(g) <- c;
        g_bit.(g) <- b)
      gids;
    c
  in
  let n_word_gates = ref 0 and n_adders = ref 0 in
  let pools = Array.make 3 [] and pool_n = Array.make 3 0 in
  let flush cat =
    if pool_n.(cat) > 0 then begin
      ignore (new_chunk (Array.of_list (List.rev pools.(cat))) ~bitidx:true);
      pools.(cat) <- [];
      pool_n.(cat) <- 0
    end
  in
  let pool cat g =
    pools.(cat) <- g :: pools.(cat);
    pool_n.(cat) <- pool_n.(cat) + 1;
    if pool_n.(cat) = max_w then flush cat
  in
  let i = ref 0 in
  while !i < ng do
    match start.(!i) with
    | Some (KAdd w) ->
      let base = !i in
      for k = 0 to 4 do
        ignore
          (new_chunk (Array.init w (fun b -> base + k + (5 * b))) ~bitidx:false)
      done;
      n_word_gates := !n_word_gates + (5 * w);
      incr n_adders;
      i := base + (5 * w)
    | Some (KRun w) | Some (KSeq w) ->
      let base = !i in
      ignore (new_chunk (Array.init w (fun b -> base + b)) ~bitidx:false);
      n_word_gates := !n_word_gates + w;
      i := base + w
    | None ->
      let cat =
        match gates.(!i).Gate.op with
        | Gate.Dff _ -> 1
        | Gate.Input | Gate.Const _ -> 2
        | _ -> 0
      in
      pool cat !i;
      incr i
  done;
  flush 0;
  flush 1;
  flush 2;
  let nchunks = !nchunks in
  let ch_mask = Array.of_list (List.rev !ch_mask) in
  let ch_gids = Array.of_list (List.rev !ch_gids) in
  let ch_bitarr = Array.of_list (List.rev !ch_bit) in
  let ch_bitidx = Bytes.make (max nchunks 1) '\000' in
  Array.iteri (fun c b -> if b then Bytes.set ch_bitidx c '\001') ch_bitarr;
  let ch_gidx = Array.make (nchunks + 1) 0 in
  for c = 0 to nchunks - 1 do
    ch_gidx.(c + 1) <- ch_gidx.(c) + Array.length ch_gids.(c)
  done;
  let gid_tbl = Array.make (max ng 1) 0 in
  Array.iteri
    (fun c gids -> Array.iteri (fun b g -> gid_tbl.(ch_gidx.(c) + b) <- g) gids)
    ch_gids;
  (* Pass 2: build instructions (locations are now all known). *)
  let mk_operand (col : int array) =
    let w = Array.length col in
    let g0 = col.(0) in
    let all_same = ref (w > 1) in
    Array.iter (fun g -> if g <> g0 then all_same := false) col;
    if !all_same then OBcast { c = g_chunk.(g0); sh = g_bit.(g0) }
    else begin
      let c0 = g_chunk.(g0) and b0 = g_bit.(g0) in
      let aligned = ref true in
      Array.iteri
        (fun k g ->
          if g_chunk.(g) <> c0 || g_bit.(g) <> b0 + k then aligned := false)
        col;
      if !aligned then OAligned { c = c0; sh = b0 }
      else OGather (Array.map (fun g -> loc_pack g_chunk.(g) g_bit.(g)) col)
    end
  in
  let column base stride w j =
    Array.init w (fun k -> gates.(base + (stride * k)).Gate.fanin.(j))
  in
  let instrs = ref [] in
  let ninstr = ref 0 in
  let emit ins =
    instrs := ins :: !instrs;
    incr ninstr
  in
  let emit_single id (g : Gate.t) =
    let nf = Array.length g.fanin in
    let l j =
      if j < nf then loc_pack g_chunk.(g.fanin.(j)) g_bit.(g.fanin.(j)) else 0
    in
    emit
      (IGate
         {
           op = opcode_of g.op;
           l0 = l 0;
           l1 = l 1;
           l2 = l 2;
           dst = loc_pack g_chunk.(id) g_bit.(id);
           dg = id;
         })
  in
  let emit_struct id =
    match start.(id) with
    | Some (KAdd w) ->
      let out0 = gates.(id + 1) in
      emit
        (IAdd
           {
             x = mk_operand (column id 5 w 0);
             y = mk_operand (column id 5 w 1);
             cin_c = g_chunk.(out0.fanin.(1));
             cin_sh = g_bit.(out0.fanin.(1));
             d_axb = g_chunk.(id);
             d_out = g_chunk.(id + 1);
             d_t1 = g_chunk.(id + 2);
             d_t2 = g_chunk.(id + 3);
             d_cout = g_chunk.(id + 4);
             mask = (1 lsl w) - 1;
           })
    | Some (KRun w) ->
      let g = gates.(id) in
      let dst = g_chunk.(id) and mask = (1 lsl w) - 1 in
      let op = opcode_of g.op in
      if op = op_buf || op = op_not then
        emit (I1 { op; a = mk_operand (column id 1 w 0); dst; mask })
      else if op = op_mux then begin
        let sel = column id 1 w 0 in
        let a = mk_operand (column id 1 w 1) in
        let b = mk_operand (column id 1 w 2) in
        let s0 = sel.(0) in
        let bcast = Array.for_all (fun g -> g = s0) sel in
        if bcast then
          emit
            (IMuxS
               { sel_c = g_chunk.(s0); sel_sh = g_bit.(s0); a; b; dst; mask })
        else emit (IMuxV { sel = mk_operand sel; a; b; dst; mask })
      end
      else
        emit
          (I2
             {
               op;
               a = mk_operand (column id 1 w 0);
               b = mk_operand (column id 1 w 1);
               dst;
               mask;
             })
    | Some (KSeq _) | None -> ()
  in
  (* Instructions in levelized order, a structure at its base id: on a
     forward netlist that order is the ascending ids, and a structure
     reads only ids below its base. *)
  Array.iter
    (fun id ->
      match start.(id) with
      | Some (KAdd _ | KRun _) -> emit_struct id
      | _ -> if not (is_claimed id) then emit_single id gates.(id))
    (Netlist.levelize net);
  let ninstr = !ninstr in
  let prog = Array.of_list (List.rev !instrs) in
  (* Serialize the IR into the flat dispatch format. *)
  let codebuf = ref [] and clen = ref 0 in
  let emitw w =
    codebuf := w :: !codebuf;
    incr clen
  in
  let gbuf = ref [] and glen = ref 0 in
  let enc_op = function
    | OAligned { c; sh } -> (c lsl 8) lor (sh lsl 2)
    | OBcast { c; sh } -> (c lsl 8) lor (sh lsl 2) lor 1
    | OGather locs ->
      let off = !glen in
      gbuf := Array.length locs :: !gbuf;
      incr glen;
      Array.iter
        (fun l ->
          gbuf := l :: !gbuf;
          incr glen)
        locs;
      (off lsl 2) lor 2
  in
  let ioff = Array.make (ninstr + 1) 0 in
  Array.iteri
    (fun i ins ->
      ioff.(i) <- !clen;
      match ins with
      | I1 { op; a; dst; mask } ->
        emitw op;
        emitw dst;
        emitw mask;
        emitw (enc_op a)
      | I2 { op; a; b; dst; mask } ->
        emitw op;
        emitw dst;
        emitw mask;
        emitw (enc_op a);
        emitw (enc_op b)
      | IMuxS { sel_c; sel_sh; a; b; dst; mask } ->
        emitw 8;
        emitw dst;
        emitw mask;
        emitw (loc_pack sel_c sel_sh);
        emitw (enc_op a);
        emitw (enc_op b)
      | IMuxV { sel; a; b; dst; mask } ->
        emitw 9;
        emitw dst;
        emitw mask;
        emitw (enc_op sel);
        emitw (enc_op a);
        emitw (enc_op b)
      | IAdd { x; y; cin_c; cin_sh; d_axb; d_out; d_t1; d_t2; d_cout; mask } ->
        emitw 10;
        emitw mask;
        emitw (loc_pack cin_c cin_sh);
        emitw d_axb;
        emitw d_out;
        emitw d_t1;
        emitw d_t2;
        emitw d_cout;
        emitw (enc_op x);
        emitw (enc_op y)
      | IGate { op; l0; l1; l2; dst; dg } ->
        emitw (11 + op);
        emitw dst;
        emitw dg;
        emitw l0;
        if op >= op_and then emitw l1;
        if op = op_mux then emitw l2)
    prog;
  ioff.(ninstr) <- !clen;
  let code = Array.make (max !clen 1) 0 in
  List.iteri (fun k w -> code.(!clen - 1 - k) <- w) !codebuf;
  let gpool = Array.make (max !glen 1) 0 in
  List.iteri (fun k w -> gpool.(!glen - 1 - k) <- w) !gbuf;
  (* Reader lists.  For each instruction, collect (chunk, bit-mask) of
     everything it reads; bits of bit-indexed chunks feed the per-gate
     CSR, word chunks keep (instr, mask) entries. *)
  let dep_masks ins =
    let acc = ref [] in
    let add c m =
      match List.assoc_opt c !acc with
      | Some r -> r := !r lor m
      | None -> acc := (c, ref m) :: !acc
    in
    let add_loc l = add (l lsr 6) (1 lsl (l land 63)) in
    let add_op mask = function
      | OAligned { c; sh } -> add c (mask lsl sh)
      | OBcast { c; sh } -> add c (1 lsl sh)
      | OGather locs -> Array.iter add_loc locs
    in
    (match ins with
    | I1 { a; mask; _ } -> add_op mask a
    | I2 { a; b; mask; _ } ->
      add_op mask a;
      add_op mask b
    | IMuxS { sel_c; sel_sh; a; b; mask; _ } ->
      add sel_c (1 lsl sel_sh);
      add_op mask a;
      add_op mask b
    | IMuxV { sel; a; b; mask; _ } ->
      add_op mask sel;
      add_op mask a;
      add_op mask b
    | IAdd { x; y; cin_c; cin_sh; mask; _ } ->
      add_op mask x;
      add_op mask y;
      add cin_c (1 lsl cin_sh)
    | IGate { op; l0; l1; l2; _ } ->
      add_loc l0;
      if op >= op_and then add_loc l1;
      if op = op_mux then add_loc l2);
    List.map (fun (c, r) -> (c, !r)) !acc
  in
  let deps = Array.map dep_masks prog in
  let wc_counts = Array.make (nchunks + 1) 0 in
  let gb_counts = Array.make (ng + 1) 0 in
  let iter_bits m f =
    let mm = ref m in
    while !mm <> 0 do
      let b = !mm land (0 - !mm) in
      mm := !mm lxor b;
      f (ntz b)
    done
  in
  Array.iter
    (List.iter (fun (c, m) ->
         if Bytes.get ch_bitidx c = '\000' then
           wc_counts.(c) <- wc_counts.(c) + 1
         else
           iter_bits m (fun b ->
               let g = gid_tbl.(ch_gidx.(c) + b) in
               gb_counts.(g) <- gb_counts.(g) + 1)))
    deps;
  let rd_start = Array.make (nchunks + 1) 0 in
  for c = 0 to nchunks - 1 do
    rd_start.(c + 1) <- rd_start.(c) + wc_counts.(c)
  done;
  let rd_instr = Array.make (max rd_start.(nchunks) 1) 0 in
  let rd_mask = Array.make (max rd_start.(nchunks) 1) 0 in
  let rb_start = Array.make (ng + 1) 0 in
  for g = 0 to ng - 1 do
    rb_start.(g + 1) <- rb_start.(g) + gb_counts.(g)
  done;
  let rb = Array.make (max rb_start.(ng) 1) 0 in
  let wfill = Array.make (max nchunks 1) 0 in
  let gfill = Array.make (max ng 1) 0 in
  Array.iteri
    (fun idx dl ->
      List.iter
        (fun (c, m) ->
          if Bytes.get ch_bitidx c = '\000' then begin
            rd_instr.(rd_start.(c) + wfill.(c)) <- pend_slot idx;
            rd_mask.(rd_start.(c) + wfill.(c)) <- m;
            wfill.(c) <- wfill.(c) + 1
          end
          else
            iter_bits m (fun b ->
                let g = gid_tbl.(ch_gidx.(c) + b) in
                rb.(rb_start.(g) + gfill.(g)) <- pend_slot idx;
                gfill.(g) <- gfill.(g) + 1))
        dl)
    deps;
  (* Reset plan (source chunks) and clock-edge plan (DFF chunks). *)
  let rs = ref [] and dcs = ref [] in
  for c = 0 to nchunks - 1 do
    let gids = ch_gids.(c) in
    match gates.(gids.(0)).Gate.op with
    | Gate.Input | Gate.Const _ | Gate.Dff _ ->
      let lo = ref 0 and hi = ref 0 in
      Array.iteri
        (fun k g ->
          let l, h =
            match gates.(g).Gate.op with
            | Gate.Input | Gate.Dff Bit.X | Gate.Const Bit.X -> (1, 1)
            | Gate.Dff Bit.Zero | Gate.Const Bit.Zero -> (1, 0)
            | Gate.Dff Bit.One | Gate.Const Bit.One -> (0, 1)
            | _ -> assert false
          in
          lo := !lo lor (l lsl k);
          hi := !hi lor (h lsl k))
        gids;
      rs := (c, !lo, !hi) :: !rs;
      (match gates.(gids.(0)).Gate.op with
      | Gate.Dff _ ->
        let d_col = Array.map (fun g -> gates.(g).Gate.fanin.(0)) gids in
        dcs := (c, mk_operand d_col, ch_mask.(c)) :: !dcs
      | _ -> ())
    | _ -> ()
  done;
  let rs = Array.of_list (List.rev !rs) in
  let dcs = Array.of_list (List.rev !dcs) in
  let dff_ids = ref [] in
  for g = ng - 1 downto 0 do
    match gates.(g).Gate.op with
    | Gate.Dff _ -> dff_ids := g :: !dff_ids
    | _ -> ()
  done;
  {
    ng;
    nchunks;
    ninstr;
    ch_mask;
    ch_gidx;
    ch_bitidx;
    gid_tbl;
    g_chunk;
    g_bit;
    code;
    ioff;
    gpool;
    rd_start;
    rd_instr;
    rd_mask;
    rb_start;
    rb;
    rs_chunk = Array.map (fun (c, _, _) -> c) rs;
    rs_lo = Array.map (fun (_, l, _) -> l) rs;
    rs_hi = Array.map (fun (_, _, h) -> h) rs;
    dc_chunk = Array.map (fun (c, _, _) -> c) dcs;
    dc_src = Array.map (fun (_, s, _) -> s) dcs;
    dc_mask = Array.map (fun (_, _, m) -> m) dcs;
    dff_ids = Array.of_list !dff_ids;
    n_word_gates = !n_word_gates;
    n_adders = !n_adders;
    lowerings = Atomic.make [];
  }

(* ---------- design cache ---------- *)

let cache : (string, program) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()
let hits = Atomic.make 0
let misses = Atomic.make 0

let compile_cached net =
  let key = Serial.hash net in
  let found =
    Mutex.lock cache_lock;
    let r = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    r
  in
  match found with
  | Some p ->
    Atomic.incr hits;
    if Obs.enabled () then Obs.Metrics.incr m_cache_hits;
    (p, true)
  | None ->
    Atomic.incr misses;
    if Obs.enabled () then Obs.Metrics.incr m_cache_misses;
    let p = Obs.Span.with_ ~name:"sim.compile" (fun () -> compile net) in
    if Obs.enabled () then begin
      Obs.Metrics.add m_instructions p.ninstr;
      Obs.Metrics.add m_word_gates p.n_word_gates;
      Obs.Metrics.add m_adders p.n_adders
    end;
    Mutex.lock cache_lock;
    if not (Hashtbl.mem cache key) then Hashtbl.add cache key p;
    Mutex.unlock cache_lock;
    (p, false)

let cache_hits () = Atomic.get hits
let cache_misses () = Atomic.get misses

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock

(* ---------- instance state ---------- *)

let create net =
  let p, from_cache = compile_cached net in
  let nc = max p.nchunks 1 in
  let npw = (p.ninstr + 62) / 63 in
  let t =
    {
      net;
      p;
      (* everything starts X, and the whole program is pending so
         the first eval is a complete sweep *)
      lo = Array.copy p.ch_mask;
      hi = Array.copy p.ch_mask;
      prev_lo = Array.copy p.ch_mask;
      prev_hi = Array.copy p.ch_mask;
      poss_w = Array.make nc 0;
      tplanes = Array.make (nc * planes) 0;
      possibly = Bytes.make (max p.ng 1) '\000';
      pend = Array.make (max npw 1) 0;
      touched = Array.make nc 0;
      touched_len = 0;
      in_touched = Bytes.make nc '\000';
      committed = 0;
      evals = 0;
      full_commit = true;
      on_first_possibly = None;
      on_cycle = None;
      sc_lo = 0;
      sc_hi = 0;
      dff_next_lo = Array.make (max (Array.length p.dc_chunk) 1) 0;
      dff_next_hi = Array.make (max (Array.length p.dc_chunk) 1) 0;
      from_cache;
    }
  in
  for i = 0 to p.ninstr - 1 do
    t.pend.(i / 63) <- t.pend.(i / 63) lor (1 lsl (i mod 63))
  done;
  t

let netlist t = t.net

type stats = {
  gates : int;
  instructions : int;
  word_gates : int;
  adders : int;
  from_cache : bool;
}

let stats t =
  {
    gates = t.p.ng;
    instructions = t.p.ninstr;
    word_gates = t.p.n_word_gates;
    adders = t.p.n_adders;
    from_cache = t.from_cache;
  }

(* ---------- execution ---------- *)

let mark_touched t c =
  if Bytes.unsafe_get t.in_touched c = '\000' then begin
    Bytes.unsafe_set t.in_touched c '\001';
    t.touched.(t.touched_len) <- c;
    t.touched_len <- t.touched_len + 1
  end

(* wake the readers of gate [g] (bit of a bit-indexed chunk) *)
let schedule_rb t g =
  let s = Array.unsafe_get t.p.rb_start g
  and e = Array.unsafe_get t.p.rb_start (g + 1) in
  for k = s to e - 1 do
    let x = Array.unsafe_get t.p.rb k in
    let wi = x lsr 6 in
    Array.unsafe_set t.pend wi
      (Array.unsafe_get t.pend wi lor (1 lsl (x land 63)))
  done

(* wake readers of the changed bits [delta] of chunk [c] *)
let schedule_delta t c delta =
  if Bytes.unsafe_get t.p.ch_bitidx c <> '\000' then begin
    let gx = Array.unsafe_get t.p.ch_gidx c in
    let m = ref delta in
    while !m <> 0 do
      let b = !m land (0 - !m) in
      m := !m lxor b;
      schedule_rb t (Array.unsafe_get t.p.gid_tbl (gx + ntz b))
    done
  end
  else begin
    let s = Array.unsafe_get t.p.rd_start c
    and e = Array.unsafe_get t.p.rd_start (c + 1) in
    (* [(hit lor (0 - hit)) lsr 62] is 1 exactly when the read-mask
       meets [delta]: every reader's pending bit is ORed in without a
       branch on the mask *)
    for k = s to e - 1 do
      let hit = Array.unsafe_get t.p.rd_mask k land delta in
      let x = Array.unsafe_get t.p.rd_instr k in
      let wi = x lsr 6 in
      Array.unsafe_set t.pend wi
        (Array.unsafe_get t.pend wi
        lor (((hit lor (0 - hit)) lsr 62) lsl (x land 63)))
    done
  end

let store t c nlo nhi =
  let olo = Array.unsafe_get t.lo c and ohi = Array.unsafe_get t.hi c in
  let delta = olo lxor nlo lor (ohi lxor nhi) in
  if delta <> 0 then begin
    Array.unsafe_set t.lo c nlo;
    Array.unsafe_set t.hi c nhi;
    mark_touched t c;
    schedule_delta t c delta
  end

(* Decode an int-encoded operand into the dual-rail scratch pair. *)
let load t v mask =
  let m = v land 3 in
  if m = 0 then begin
    let c = v lsr 8 and sh = (v lsr 2) land 63 in
    t.sc_lo <- (Array.unsafe_get t.lo c lsr sh) land mask;
    t.sc_hi <- (Array.unsafe_get t.hi c lsr sh) land mask
  end
  else if m = 1 then begin
    let c = v lsr 8 and sh = (v lsr 2) land 63 in
    t.sc_lo <- (0 - ((Array.unsafe_get t.lo c lsr sh) land 1)) land mask;
    t.sc_hi <- (0 - ((Array.unsafe_get t.hi c lsr sh) land 1)) land mask
  end
  else begin
    let gp = t.p.gpool in
    let off = v lsr 2 in
    let len = Array.unsafe_get gp off in
    let llo = ref 0 and lhi = ref 0 in
    for i = 0 to len - 1 do
      let l = Array.unsafe_get gp (off + 1 + i) in
      let c = l lsr 6 and b = l land 63 in
      llo := !llo lor (((Array.unsafe_get t.lo c lsr b) land 1) lsl i);
      lhi := !lhi lor (((Array.unsafe_get t.hi c lsr b) land 1) lsl i)
    done;
    t.sc_lo <- !llo;
    t.sc_hi <- !lhi
  end

(* Clock-edge D columns are kept as IR operands (cold path). *)
let load_rec t a mask =
  match a with
  | OAligned { c; sh } ->
    t.sc_lo <- (Array.unsafe_get t.lo c lsr sh) land mask;
    t.sc_hi <- (Array.unsafe_get t.hi c lsr sh) land mask
  | OBcast { c; sh } ->
    t.sc_lo <- (0 - ((Array.unsafe_get t.lo c lsr sh) land 1)) land mask;
    t.sc_hi <- (0 - ((Array.unsafe_get t.hi c lsr sh) land 1)) land mask
  | OGather locs ->
    let llo = ref 0 and lhi = ref 0 in
    for i = 0 to Array.length locs - 1 do
      let l = Array.unsafe_get locs i in
      let c = l lsr 6 and b = l land 63 in
      llo := !llo lor (((Array.unsafe_get t.lo c lsr b) land 1) lsl i);
      lhi := !lhi lor (((Array.unsafe_get t.hi c lsr b) land 1) lsl i)
    done;
    t.sc_lo <- !llo;
    t.sc_hi <- !lhi

let set_scratch t l h =
  t.sc_lo <- l;
  t.sc_hi <- h

(* The Kleene rail formulas of gate opcode [opc] over dual-rail words
   [a], [b] and [c] (a mux reads [sel; a; b] from them), into the
   scratch pair.  Word instructions, scalar gates (on one-bit words)
   and check programs all evaluate through this one set. *)
let rails t opc alo ahi blo bhi clo chi =
  if opc = op_buf then set_scratch t alo ahi
  else if opc = op_not then set_scratch t ahi alo
  else if opc = op_and then set_scratch t (alo lor blo) (ahi land bhi)
  else if opc = op_or then set_scratch t (alo land blo) (ahi lor bhi)
  else if opc = op_nand then set_scratch t (ahi land bhi) (alo lor blo)
  else if opc = op_nor then set_scratch t (ahi lor bhi) (alo land blo)
  else if opc = op_xor then
    set_scratch t
      ((alo land blo) lor (ahi land bhi))
      ((alo land bhi) lor (ahi land blo))
  else if opc = op_xnor then
    set_scratch t
      ((alo land bhi) lor (ahi land blo))
      ((alo land blo) lor (ahi land bhi))
  else begin
    let s0 = alo land lnot ahi and s1 = ahi land lnot alo and sx = alo land ahi in
    set_scratch t
      ((s0 land blo) lor (s1 land clo) lor (sx land (blo lor clo)))
      ((s0 land bhi) lor (s1 land chi) lor (sx land (bhi lor chi)))
  end

(* the can-be-0 / can-be-1 rail bit at a packed location *)
let[@inline] bit_lo t l = (Array.unsafe_get t.lo (l lsr 6) lsr (l land 63)) land 1
let[@inline] bit_hi t l = (Array.unsafe_get t.hi (l lsr 6) lsr (l land 63)) land 1

(* The carry into every bit of the chain c' = g | (p & c) from carry-in
   [cin], and out of the top bit above it: with a = g | p and b = g,
   a & b = g and a ^ b = p & ~g, so the carries of a + b + cin are the
   chain's. *)
let[@inline] carries g p cin =
  let a = g lor p in
  (a + g + cin) lxor a lxor g

let exec t i =
  let code = t.p.code in
  let o = Array.unsafe_get t.p.ioff i in
  let opc = Array.unsafe_get code o in
  if opc >= 11 then begin
    (* scalar gate: one dispatch evaluates and stores a single bit *)
    let op = opc - 11 in
    let la = Array.unsafe_get code (o + 3) in
    let lb = if op >= op_and then Array.unsafe_get code (o + 4) else la in
    let lc = if op = op_mux then Array.unsafe_get code (o + 5) else la in
    rails t op (bit_lo t la) (bit_hi t la) (bit_lo t lb) (bit_hi t lb)
      (bit_lo t lc) (bit_hi t lc);
    let dst = Array.unsafe_get code (o + 1) in
    let c = dst lsr 6 and b = dst land 63 in
    let olo = Array.unsafe_get t.lo c and ohi = Array.unsafe_get t.hi c in
    let m = 1 lsl b in
    let nlo = olo land lnot m lor (t.sc_lo lsl b)
    and nhi = ohi land lnot m lor (t.sc_hi lsl b) in
    if nlo <> olo || nhi <> ohi then begin
      Array.unsafe_set t.lo c nlo;
      Array.unsafe_set t.hi c nhi;
      mark_touched t c;
      schedule_rb t (Array.unsafe_get code (o + 2))
    end
  end
  else if opc < 8 then begin
    let dst = Array.unsafe_get code (o + 1)
    and mask = Array.unsafe_get code (o + 2) in
    load t (Array.unsafe_get code (o + 3)) mask;
    if opc < 2 then rails t opc t.sc_lo t.sc_hi 0 0 0 0
    else begin
      let alo = t.sc_lo and ahi = t.sc_hi in
      load t (Array.unsafe_get code (o + 4)) mask;
      rails t opc alo ahi t.sc_lo t.sc_hi 0 0
    end;
    store t dst t.sc_lo t.sc_hi
  end
  else if opc = 8 then begin
    let dst = Array.unsafe_get code (o + 1)
    and mask = Array.unsafe_get code (o + 2)
    and sel = Array.unsafe_get code (o + 3) in
    let sl = bit_lo t sel and sh = bit_hi t sel in
    if sh = 0 then begin
      load t (Array.unsafe_get code (o + 4)) mask;
      store t dst t.sc_lo t.sc_hi
    end
    else if sl = 0 then begin
      load t (Array.unsafe_get code (o + 5)) mask;
      store t dst t.sc_lo t.sc_hi
    end
    else begin
      load t (Array.unsafe_get code (o + 4)) mask;
      let alo = t.sc_lo and ahi = t.sc_hi in
      load t (Array.unsafe_get code (o + 5)) mask;
      store t dst (alo lor t.sc_lo) (ahi lor t.sc_hi)
    end
  end
  else if opc = 9 then begin
    let dst = Array.unsafe_get code (o + 1)
    and mask = Array.unsafe_get code (o + 2) in
    load t (Array.unsafe_get code (o + 3)) mask;
    let slo = t.sc_lo and shi = t.sc_hi in
    load t (Array.unsafe_get code (o + 4)) mask;
    let alo = t.sc_lo and ahi = t.sc_hi in
    load t (Array.unsafe_get code (o + 5)) mask;
    rails t op_mux slo shi alo ahi t.sc_lo t.sc_hi;
    store t dst t.sc_lo t.sc_hi
  end
  else begin
    (* opc = 10: recovered ripple-carry adder.  Per bit the chain is
       axb = x^y, out = axb^c, t1 = x&y, t2 = c&axb, c' = t1|t2.  On
       rails, c' can be 1 where t1 can be 1, or axb and c can be 1; it
       can be 0 where t1 can be 0 and (axb or c can be 0).  Each carry
       rail is a generate/propagate recurrence that [carries] resolves
       with one native add. *)
    let mask = Array.unsafe_get code (o + 1)
    and cin = Array.unsafe_get code (o + 2) in
    load t (Array.unsafe_get code (o + 8)) mask;
    let xlo = t.sc_lo and xhi = t.sc_hi in
    load t (Array.unsafe_get code (o + 9)) mask;
    let ylo = t.sc_lo and yhi = t.sc_hi in
    let t1lo = xlo lor ylo and t1hi = xhi land yhi in
    let axlo = (xlo land ylo) lor (xhi land yhi)
    and axhi = (xlo land yhi) lor (xhi land ylo) in
    let u0 = carries (t1lo land axlo) t1lo (bit_lo t cin)
    and u1 = carries t1hi axhi (bit_hi t cin) in
    let clo = u0 land mask and chi = u1 land mask in
    store t (Array.unsafe_get code (o + 3)) axlo axhi;
    store t
      (Array.unsafe_get code (o + 4))
      ((axlo land clo) lor (axhi land chi))
      ((axlo land chi) lor (axhi land clo));
    store t (Array.unsafe_get code (o + 5)) t1lo t1hi;
    store t (Array.unsafe_get code (o + 6)) (clo lor axlo) (chi land axhi);
    store t (Array.unsafe_get code (o + 7)) ((u0 lsr 1) land mask)
      ((u1 lsr 1) land mask)
  end

(* Drain pending instructions in topological order.  Every reader of a
   chunk sits strictly later in the program, so one forward sweep
   settles everything.  The scan isolates the lowest pending bit and
   maps it to its index with [ntz]'s multiply and lookup, so picking
   the next instruction costs no data-dependent branch. *)
let drain t =
  let pend = t.pend in
  let execs = ref 0 in
  for wi = 0 to Array.length pend - 1 do
    while Array.unsafe_get pend wi <> 0 do
      let w = Array.unsafe_get pend wi in
      let b = w land (0 - w) in
      Array.unsafe_set pend wi (w lxor b);
      exec t ((wi * 63) + ntz b);
      incr execs
    done
  done;
  !execs

let eval t =
  if not (Obs.enabled ()) then ignore (drain t)
  else begin
    t.evals <- t.evals + 1;
    let t0 = if t.evals mod eval_stride = 0 then Obs.now_ns () else 0 in
    let execs = drain t in
    if t0 <> 0 then ignore (Obs.Metrics.lap h_eval t0);
    Obs.Metrics.add m_instr_execs execs;
    Obs.Metrics.incr m_settles;
    Obs.Metrics.observe h_active execs
  end

let clear_pending t = Array.fill t.pend 0 (Array.length t.pend) 0

let clear_touched t =
  t.touched_len <- 0;
  Bytes.fill t.in_touched 0 (Bytes.length t.in_touched) '\000'

let reset t =
  clear_pending t;
  clear_touched t;
  let p = t.p in
  for k = 0 to Array.length p.rs_chunk - 1 do
    let c = p.rs_chunk.(k) in
    t.lo.(c) <- p.rs_lo.(k);
    t.hi.(c) <- p.rs_hi.(k)
  done;
  (* full unconditional sweep, then forget the bookkeeping it caused *)
  for i = 0 to p.ninstr - 1 do
    exec t i
  done;
  clear_pending t;
  clear_touched t;
  Array.blit t.lo 0 t.prev_lo 0 p.nchunks;
  Array.blit t.hi 0 t.prev_hi 0 p.nchunks;
  t.committed <- 0;
  t.full_commit <- true

(* ---------- values ---------- *)

let value_code t g =
  let l = loc_pack t.p.g_chunk.(g) t.p.g_bit.(g) in
  let hi = bit_hi t l in
  hi + (bit_lo t l land hi)

let write_bit t g bit =
  let c = t.p.g_chunk.(g) and b = t.p.g_bit.(g) in
  let nlo, nhi =
    match bit with Bit.Zero -> (1, 0) | Bit.One -> (0, 1) | Bit.X -> (1, 1)
  in
  let olo = (t.lo.(c) lsr b) land 1 and ohi = (t.hi.(c) lsr b) land 1 in
  if olo <> nlo || ohi <> nhi then begin
    let m = lnot (1 lsl b) in
    t.lo.(c) <- t.lo.(c) land m lor (nlo lsl b);
    t.hi.(c) <- t.hi.(c) land m lor (nhi lsl b);
    mark_touched t c;
    schedule_delta t c (1 lsl b)
  end

let set_gate t g bit =
  (match t.net.Netlist.gates.(g).op with
  | Gate.Input -> ()
  | op ->
    invalid_arg
      (Printf.sprintf "Compile.set_gate: gate %d is %s, not an input" g
         (Gate.op_name op)));
  write_bit t g bit

(* Drive a whole input port from an int in one word store when its
   gates share a chunk (the common case: consecutive input-port bits
   are packed together at compile time).  Only the first id's op is
   checked; callers pass input-port id vectors. *)
let set_gates_int t (ids : int array) v =
  let n = Array.length ids in
  if n > 0 then begin
    (match t.net.Netlist.gates.(ids.(0)).op with
    | Gate.Input -> ()
    | op ->
      invalid_arg
        (Printf.sprintf "Compile.set_gates_int: gate %d is %s, not an input"
           ids.(0) (Gate.op_name op)));
    let p = t.p in
    let c = p.g_chunk.(ids.(0)) and b0 = p.g_bit.(ids.(0)) in
    let aligned = ref (n <= max_w) in
    for i = 1 to n - 1 do
      if p.g_chunk.(ids.(i)) <> c || p.g_bit.(ids.(i)) <> b0 + i then
        aligned := false
    done;
    if !aligned then begin
      let mask = ((1 lsl n) - 1) lsl b0 in
      let hibits = (v lsl b0) land mask in
      let lobits = mask land lnot hibits in
      let keep = lnot mask in
      store t c
        ((t.lo.(c) land keep) lor lobits)
        ((t.hi.(c) land keep) lor hibits)
    end
    else
      Array.iteri
        (fun i id ->
          write_bit t id (if (v lsr i) land 1 = 1 then Bit.One else Bit.Zero))
        ids
  end

(* Int readback of a gate-id vector; [None] if any bit is X.  One word
   extract when the ids are consecutive bits of a chunk. *)
let read_int_ids t (ids : int array) =
  let n = Array.length ids in
  if n = 0 then Some 0
  else begin
    let p = t.p in
    let c = p.g_chunk.(ids.(0)) and b0 = p.g_bit.(ids.(0)) in
    let aligned = ref (b0 + n <= max_w) in
    for i = 1 to n - 1 do
      if p.g_chunk.(ids.(i)) <> c || p.g_bit.(ids.(i)) <> b0 + i then
        aligned := false
    done;
    if !aligned then begin
      let mask = (1 lsl n) - 1 in
      let lo = (t.lo.(c) lsr b0) land mask
      and hi = (t.hi.(c) lsr b0) land mask in
      if lo land hi <> 0 then None else Some hi
    end
    else begin
      let v = ref 0 and known = ref true in
      Array.iteri
        (fun i id ->
          let cd = value_code t id in
          if cd > 1 then known := false else v := !v lor (cd lsl i))
        ids;
      if !known then Some !v else None
    end
  end

let rails_reader t (ids : int array) =
  (* maximal runs of consecutive bits of one chunk, as flat
     (chunk, bit, length, destination bit) quads *)
  let runs = ref [] and i = ref 0 in
  let n = Array.length ids in
  while !i < n do
    let c = t.p.g_chunk.(ids.(!i)) and b = t.p.g_bit.(ids.(!i)) in
    let len = ref 1 in
    while
      !i + !len < n
      && t.p.g_chunk.(ids.(!i + !len)) = c
      && t.p.g_bit.(ids.(!i + !len)) = b + !len
    do
      incr len
    done;
    runs := [ c; b; !len; !i ] :: !runs;
    i := !i + !len
  done;
  let r = Array.of_list (List.concat (List.rev !runs)) in
  fun (dst : int array) ->
    let lo = ref 0 and hi = ref 0 in
    for k = 0 to (Array.length r / 4) - 1 do
      let c = r.(4 * k) and b = r.((4 * k) + 1) and d = r.((4 * k) + 3) in
      let mask = (1 lsl r.((4 * k) + 2)) - 1 in
      lo := !lo lor (((t.lo.(c) lsr b) land mask) lsl d);
      hi := !hi lor (((t.hi.(c) lsr b) land mask) lsl d)
    done;
    dst.(0) <- !lo;
    dst.(1) <- !hi

(* ---------- clock edge ---------- *)

let step t =
  let p = t.p in
  let n = Array.length p.dc_chunk in
  for i = 0 to n - 1 do
    load_rec t p.dc_src.(i) p.dc_mask.(i);
    t.dff_next_lo.(i) <- t.sc_lo;
    t.dff_next_hi.(i) <- t.sc_hi
  done;
  for i = 0 to n - 1 do
    store t p.dc_chunk.(i) t.dff_next_lo.(i) t.dff_next_hi.(i)
  done;
  eval t

(* ---------- per-cycle activity ---------- *)

(* bit-sliced increment: add the changed mask into the counter planes *)
let add_toggles t c m =
  let base = c * planes in
  let carry = ref m and i = ref 0 in
  while !carry <> 0 && !i < planes do
    let idx = base + !i in
    let p = Array.unsafe_get t.tplanes idx in
    Array.unsafe_set t.tplanes idx (p lxor !carry);
    carry := p land !carry;
    incr i
  done

let commit_chunk t c =
  let cl = Array.unsafe_get t.lo c and ch = Array.unsafe_get t.hi c in
  let changed =
    cl lxor Array.unsafe_get t.prev_lo c
    lor (ch lxor Array.unsafe_get t.prev_hi c)
  in
  if changed <> 0 then begin
    add_toggles t c changed;
    Array.unsafe_set t.prev_lo c cl;
    Array.unsafe_set t.prev_hi c ch
  end;
  let target =
    (changed lor (cl land ch)) land lnot (Array.unsafe_get t.poss_w c)
  in
  if target <> 0 then begin
    Array.unsafe_set t.poss_w c (Array.unsafe_get t.poss_w c lor target);
    let gx = Array.unsafe_get t.p.ch_gidx c in
    let m = ref target in
    while !m <> 0 do
      let bbit = !m land (0 - !m) in
      let g = Array.unsafe_get t.p.gid_tbl (gx + ntz bbit) in
      Bytes.unsafe_set t.possibly g '\001';
      (match t.on_first_possibly with None -> () | Some f -> f g);
      m := !m lxor bbit
    done
  end

let commit_cycle t =
  if t.full_commit then begin
    for c = 0 to t.p.nchunks - 1 do
      commit_chunk t c
    done;
    t.full_commit <- false
  end
  else
    for k = 0 to t.touched_len - 1 do
      commit_chunk t (Array.unsafe_get t.touched k)
    done;
  clear_touched t;
  t.committed <- t.committed + 1;
  if Obs.enabled () then Obs.Metrics.incr m_cycles;
  match t.on_cycle with
  | None -> ()
  | Some f when Obs.enabled () && t.committed land 63 = 0 ->
    let t0 = Obs.now_ns () in
    f t.committed;
    ignore (Obs.Metrics.lap h_hook t0)
  | Some f -> f t.committed

let toggle_counts t =
  let arr = Array.make (max t.p.ng 1) 0 in
  for c = 0 to t.p.nchunks - 1 do
    let gx = t.p.ch_gidx.(c) in
    let base = c * planes in
    for i = 0 to planes - 1 do
      let w = ref t.tplanes.(base + i) in
      while !w <> 0 do
        let b = !w land (0 - !w) in
        let g = t.p.gid_tbl.(gx + ntz b) in
        arr.(g) <- arr.(g) + (1 lsl i);
        w := !w lxor b
      done
    done
  done;
  arr

let possibly_toggled t =
  Array.init t.p.ng (fun i -> Bytes.get t.possibly i <> '\000')

let set_first_possibly_hook t f = t.on_first_possibly <- f
let set_cycle_hook t f = t.on_cycle <- f

let sync_prev t =
  Array.blit t.lo 0 t.prev_lo 0 t.p.nchunks;
  Array.blit t.hi 0 t.prev_hi 0 t.p.nchunks


(* ---------- sequential state ---------- *)

let dff_ids t = t.p.dff_ids

(* The DFF state is the DFF chunks' own rails, [lo; hi] per chunk in
   clock-edge-plan order; slot [k lsl 6 lor b] is bit [b] of pair
   [k]. *)
let dff_rails t =
  let dc = t.p.dc_chunk in
  let r = Array.make (2 * Array.length dc) 0 in
  Array.iteri
    (fun k c ->
      Array.unsafe_set r (2 * k) (Array.unsafe_get t.lo c);
      Array.unsafe_set r ((2 * k) + 1) (Array.unsafe_get t.hi c))
    dc;
  r

let restore_dff_rails t r =
  let dc = t.p.dc_chunk in
  if Array.length r <> 2 * Array.length dc then
    invalid_arg "Compile.restore_dff_rails: size mismatch";
  Array.iteri (fun k c -> store t c r.(2 * k) r.((2 * k) + 1)) dc;
  eval t

let dff_slot t g =
  match t.net.Netlist.gates.(g).Gate.op with
  | Gate.Dff _ ->
    let c = t.p.g_chunk.(g) in
    let rec find k = if t.p.dc_chunk.(k) = c then k else find (k + 1) in
    (find 0 lsl 6) lor t.p.g_bit.(g)
  | _ -> -1

(* ---------- packed assumption checks ---------- *)

let arity_of_opcode opc = if opc < op_and then 1 else if opc = op_mux then 3 else 2

(* A DFF is checked through its next-state function (Buf of D); a
   constant is a Buf of its tie. *)
let check_opcode c =
  match c.c_op with
  | Gate.Dff _ | Gate.Const _ -> op_buf
  | Gate.Input -> invalid_arg "Compile.lower_checks: Input has no function"
  | op -> opcode_of op

let fanin_src c j = match c.c_op with Gate.Const b -> Tie b | _ -> c.c_fanin.(j)

let lower_checks p (cs : check array) =
  let n = Array.length cs in
  let opcs = Bytes.init n (fun i -> Char.chr (check_opcode cs.(i))) in
  let maxw = (n / max_w) + op_mux + 1 in
  let ops = Array.make maxw 0 and cols = Array.make maxw 0 in
  let a0 = Array.make maxw 0 and a1 = Array.make maxw 0 in
  let ax = Array.make maxw 0 in
  let clo = Array.make (3 * maxw) 0 and chi = Array.make (3 * maxw) 0 in
  let cseg = Array.make ((3 * maxw) + 1) 0 and cbc = Array.make (3 * maxw) 0 in
  let segs = ref (Array.make 384 0) and nseg = ref 0 in
  let push_seg x y z =
    if 3 * (!nseg + 1) > Array.length !segs then begin
      let bigger = Array.make (2 * Array.length !segs) 0 in
      Array.blit !segs 0 bigger 0 (3 * !nseg);
      segs := bigger
    end;
    let o = 3 * !nseg in
    !segs.(o) <- x;
    !segs.(o + 1) <- y;
    !segs.(o + 2) <- z;
    incr nseg
  in
  (* one column's broadcasts wait here while its runs are pushed *)
  let bc = Array.make (3 * max_w) 0 and nbc = ref 0 in
  let nw = ref 0 and ncol = ref 0 in
  let lanes = Array.make max_w 0 and nl = ref 0 in
  let emit_word opc =
    let w = !nw in
    incr nw;
    ops.(w) <- opc;
    cols.(w) <- !ncol;
    for k = 0 to !nl - 1 do
      let lane = 1 lsl k in
      match cs.(lanes.(k)).c_assumed with
      | Bit.Zero -> a0.(w) <- a0.(w) lor lane
      | Bit.One -> a1.(w) <- a1.(w) lor lane
      | Bit.X -> ax.(w) <- ax.(w) lor lane
    done;
    for j = 0 to arity_of_opcode opc - 1 do
      let col = !ncol in
      incr ncol;
      cseg.(col) <- !nseg;
      nbc := 0;
      (* the open segment: chunk, source bit, first lane, length, and
         whether it broadcasts (same bit) rather than runs *)
      let sc = ref 0 and sb = ref 0 and sd = ref 0 and sl = ref 0 in
      let bcast = ref false in
      let close () =
        if !sl > 0 then
          if !bcast then begin
            let o = 3 * !nbc in
            bc.(o) <- !sc;
            bc.(o + 1) <- !sb;
            bc.(o + 2) <- ((1 lsl !sl) - 1) lsl !sd;
            incr nbc
          end
          else push_seg !sc !sb ((!sl lsl 6) lor !sd);
        sl := 0
      in
      for k = 0 to !nl - 1 do
        match fanin_src cs.(lanes.(k)) j with
        | Tie b ->
          close ();
          let l, h =
            match b with Bit.Zero -> (1, 0) | Bit.One -> (0, 1) | Bit.X -> (1, 1)
          in
          clo.(col) <- clo.(col) lor (l lsl k);
          chi.(col) <- chi.(col) lor (h lsl k)
        | Net g ->
          let c = p.g_chunk.(g) and b = p.g_bit.(g) in
          (* ties close the open segment, so a net lane always
             follows the segment's last lane *)
          let same = !sl > 0 && c = !sc in
          if same && (!sl = 1 || !bcast) && b = !sb then begin
            bcast := true;
            incr sl
          end
          else if same && not !bcast && b = !sb + !sl then incr sl
          else begin
            close ();
            sc := c;
            sb := b;
            sd := k;
            sl := 1;
            bcast := false
          end
      done;
      close ();
      cbc.(col) <- !nseg;
      for i = 0 to !nbc - 1 do
        push_seg bc.(3 * i) bc.((3 * i) + 1) bc.((3 * i) + 2)
      done
    done;
    nl := 0
  in
  (* lanes keep the caller's order within an opcode: neighbouring
     checks tend to read neighbouring state bits *)
  for opc = 0 to op_mux do
    for i = 0 to n - 1 do
      if Char.code (Bytes.unsafe_get opcs i) = opc then begin
        lanes.(!nl) <- i;
        incr nl;
        if !nl = max_w then emit_word opc
      end
    done;
    if !nl > 0 then emit_word opc
  done;
  cseg.(!ncol) <- !nseg;
  {
    k_op = Array.sub ops 0 !nw;
    k_col = Array.sub cols 0 !nw;
    k_a0 = Array.sub a0 0 !nw;
    k_a1 = Array.sub a1 0 !nw;
    k_ax = Array.sub ax 0 !nw;
    col_lo = Array.sub clo 0 !ncol;
    col_hi = Array.sub chi 0 !ncol;
    col_seg = Array.sub cseg 0 (!ncol + 1);
    col_bc = Array.sub cbc 0 !ncol;
    segs = Array.sub !segs 0 (3 * !nseg);
  }

(* Column [j]'s dual rails, into the scratch pair. *)
let load_column t k j =
  let segs = k.segs in
  let l = ref (Array.unsafe_get k.col_lo j)
  and h = ref (Array.unsafe_get k.col_hi j) in
  let bc = Array.unsafe_get k.col_bc j in
  for s = Array.unsafe_get k.col_seg j to bc - 1 do
    let o = 3 * s in
    let c = Array.unsafe_get segs o
    and sb = Array.unsafe_get segs (o + 1)
    and x = Array.unsafe_get segs (o + 2) in
    let m = (1 lsl (x lsr 6)) - 1 and d = x land 63 in
    l := !l lor (((Array.unsafe_get t.lo c lsr sb) land m) lsl d);
    h := !h lor (((Array.unsafe_get t.hi c lsr sb) land m) lsl d)
  done;
  for s = bc to Array.unsafe_get k.col_seg (j + 1) - 1 do
    let o = 3 * s in
    let c = Array.unsafe_get segs o
    and sb = Array.unsafe_get segs (o + 1)
    and m = Array.unsafe_get segs (o + 2) in
    l := !l lor ((0 - ((Array.unsafe_get t.lo c lsr sb) land 1)) land m);
    h := !h lor ((0 - ((Array.unsafe_get t.hi c lsr sb) land 1)) land m)
  done;
  t.sc_lo <- !l;
  t.sc_hi <- !h

(* Word [w]'s lanes that are known and differ from their assumption,
   with the engine's rail formulas, so X never convicts. *)
let violated_lanes t k w =
  let opc = Array.unsafe_get k.k_op w and col = Array.unsafe_get k.k_col w in
  load_column t k col;
  let alo = t.sc_lo and ahi = t.sc_hi in
  if opc >= op_and then begin
    load_column t k (col + 1);
    let blo = t.sc_lo and bhi = t.sc_hi in
    if opc = op_mux then begin
      load_column t k (col + 2);
      rails t opc alo ahi blo bhi t.sc_lo t.sc_hi
    end
    else rails t opc alo ahi blo bhi 0 0
  end
  else rails t opc alo ahi 0 0 0 0;
  let lo = t.sc_lo and hi = t.sc_hi in
  Array.unsafe_get k.k_a0 w land hi land lnot lo
  lor (Array.unsafe_get k.k_a1 w land lo land lnot hi)
  lor (Array.unsafe_get k.k_ax w land (lo lxor hi))

let any_violated t k =
  let nw = Array.length k.k_op in
  let w = ref 0 in
  while !w < nw && violated_lanes t k !w = 0 do
    incr w
  done;
  !w < nw

(* The lowering reads only the program, so it is kept with it: an
   instance attaching a check array that a run of the same program
   lowered (a guard plan builds its array once) reuses that lowering.
   The newest few stay, each only while its array lives (holding the
   arrays of finished plans strongly raised flow-rv32's peak RSS by
   about 15 %); a race between domains at worst lowers twice. *)
let lowered p cs =
  let entries = Atomic.get p.lowerings in
  match List.find_map (fun e -> Ephemeron.K1.query e cs) entries with
  | Some k -> k
  | None ->
    if Obs.enabled () then Obs.Metrics.incr m_lowerings;
    let k = lower_checks p cs in
    let keep = List.filteri (fun i _ -> i < 7) entries in
    Atomic.set p.lowerings (Ephemeron.K1.make cs k :: keep);
    k

let checks t cs =
  let k = lowered t.p cs in
  fun () -> any_violated t k
