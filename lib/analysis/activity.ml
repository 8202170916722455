module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Memory = Bespoke_sim.Memory
module Coredef = Bespoke_coreapi.Coredef
module System = Bespoke_coreapi.System
module Obs = Bespoke_obs.Obs

(* Execution-tree telemetry (no-ops unless Obs is enabled), flushed
   once per [analyze] call. *)
let m_branches = Obs.Metrics.counter "analysis.branches"
let m_merges = Obs.Metrics.counter "analysis.merges"
let m_prunes = Obs.Metrics.counter "analysis.prunes"
let m_paths = Obs.Metrics.counter "analysis.paths"
let m_cycles = Obs.Metrics.counter "analysis.cycles"

(* Sampled timer of the instruction segments an exploration simulates;
   {!System} times the state operations the same way. *)
let t_segment = System.timer "analysis.segment_ns"

type config = {
  irq_x : bool;
  ram_x_ranges : (int * int) list;
  max_total_cycles : int;
  max_paths : int;
}

let default_config =
  {
    irq_x = true;
    ram_x_ranges = [];
    max_total_cycles = 3_000_000;
    max_paths = 20_000;
  }

type first_toggle = { ft_cycle : int; ft_node : int; ft_pc : int }

type tree_node = {
  node_id : int;
  parent : int;
  edge_label : string;
  start_pc : int;
  mutable end_pc : int;
  mutable end_kind : string;
  mutable node_cycles : int;
}

type schedule = {
  config : config;
  ops : int array;
  regs : int array;
  ram : int array;
  keys : int;
}

type report = {
  possibly_toggled : bool array;
  constant_values : Bit.t array;
  paths : int;
  merges : int;
  prunes : int;
  total_cycles : int;
  halted_paths : int;
  escaped_paths : int;
  first_toggle : first_toggle option array;
  tree : tree_node array;
  schedule : schedule;
}

exception Analysis_error of string
exception Shadow_mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Analysis_error s)) fmt
let mismatch fmt = Printf.ksprintf (fun s -> raise (Shadow_mismatch s)) fmt

(* A schedule op is a tag in the low [tag_bits] bits of an [ops] word
   with its payload above. *)
type op =
  | Seg  (* cycles stepped *)
  | Boundary  (* mask of the registers whose rails follow in [regs] *)
  | Halted  (* as [Boundary], then one [ram] record; ends the path *)
  | Escape  (* ends the path *)
  | Fork  (* candidate count, then one [pc lsl 1 lor covered] word each;
             ends the path *)
  | Prune  (* ends the path *)
  | Insert  (* interned table key *)
  | Merge  (* interned table key *)
  | Irq  (* forced sources: 1 irq_flag, 2 GIE, 4 irq_enable *)

let tag_bits = 4
let ops_by_tag = [| Seg; Boundary; Halted; Escape; Fork; Prune; Insert; Merge; Irq |]

let tag_of_op = function
  | Seg -> 0
  | Boundary -> 1
  | Halted -> 2
  | Escape -> 3
  | Fork -> 4
  | Prune -> 5
  | Insert -> 6
  | Merge -> 7
  | Irq -> 8

let op_of_word x = ops_by_tag.(x land ((1 lsl tag_bits) - 1))

(* A growable int array, for recording the schedule. *)
type ibuf = { mutable buf : int array; mutable len : int }

let ibuf () = { buf = Array.make 256 0; len = 0 }

let push b x =
  if b.len = Array.length b.buf then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 a 0 b.len;
    b.buf <- a
  end;
  b.buf.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.buf 0 b.len

(* The children of an irq fork in push order: both values of every
   forced source bit (a {!System.dff_slots} slot), the first source
   varying slowest. *)
let irq_children snap slots =
  List.fold_left
    (fun acc slot ->
      List.concat_map
        (fun s -> [ System.force_dffs s [| slot |] 0; System.force_dffs s [| slot |] 1 ])
        acc)
    [ snap ] slots

(* Gate ids of the hooks the exploration reads at every cycle or
   boundary, resolved once per run. *)
type hook_ids = {
  pc : int array;
  exec_jump : int;
  branch_taken : int;
  irq_pending : int;
  gie : int;  (* -1 on a core without a GIE bit *)
}

let hook_ids sys =
  let net = System.netlist sys in
  let bit name i = (Netlist.find_name net name).(i) in
  {
    pc = Netlist.find_name net "pc";
    exec_jump = bit "exec_jump" 0;
    branch_taken = bit "branch_taken" 0;
    irq_pending = bit "irq_pending" 0;
    gie =
      (match (System.core sys).Coredef.gie_bit with
      | Some (hook, b) -> bit hook b
      | None -> -1);
  }

(* The sources of a pending interrupt as (bit in an [Irq] op, gate id,
   {!System.dff_slots} slot): 1 irq_flag, 2 GIE (on a core with one),
   4 irq_enable. *)
let irq_sources sys =
  let source bit (hook, i) =
    (bit, (Netlist.find_name (System.netlist sys) hook).(i), (System.dff_slots sys hook).(i))
  in
  (source 1 ("irq_flag", 0)
   :: Option.to_list (Option.map (source 2) (System.core sys).Coredef.gie_bit))
  @ [ source 4 ("irq_enable", 0) ]

let init_system config s =
  System.reset s;
  System.set_gpio_in_x s;
  System.set_irq s (if config.irq_x then Bit.X else Bit.Zero);
  List.iter
    (fun (lo, hi) -> System.set_ram_x s ~lo_addr:lo ~hi_addr:hi)
    config.ram_x_ranges

type entry = {
  snap : System.snapshot;
  candidates : int list;  (* recorded jump targets if PC is unknown *)
  skip_table : bool;  (* fork children continue the merged state *)
  node : tree_node;  (* execution-tree node this entry continues *)
}

let analyze_impl ?(config = default_config) sys =
  let net = System.netlist sys in
  let eng = System.engine sys in
  let core = System.core sys in
  let image = System.image sys in
  let rom = image.Coredef.rom in
  let rom_word a =
    if Coredef.in_rom core a then rom.((a - core.Coredef.rom_base) lsr core.Coredef.addr_shift)
    else 0
  in
  let classify ~pc =
    try core.Coredef.classify ~rom_word ~pc with Failure m -> fail "%s" m
  in
  let hk = hook_ids sys in
  let pc_slots = System.dff_slots sys "pc" in
  let irq_sources = lazy (irq_sources sys) in
  (* The binary's instruction start addresses: mid-instruction words
     are not reachable boundaries of any concrete execution. *)
  let insn_starts =
    let tbl = Hashtbl.create 256 in
    List.iter (fun a -> Hashtbl.replace tbl a ()) image.Coredef.insn_addrs;
    tbl
  in
  let merges = ref 0 in
  let forks = ref 0 in
  let prunes = ref 0 in
  let paths = ref 0 in
  let halted_paths = ref 0 in
  let escaped_paths = ref 0 in
  let total_cycles = ref 0 in
  (* -- provenance: first-toggle attribution + execution tree -- *)
  let first_toggle = Array.make (Netlist.gate_count net) None in
  let nodes = ref [] in
  let node_count = ref 0 in
  let new_node ~parent ~edge ~start_pc =
    let n =
      {
        node_id = !node_count;
        parent;
        edge_label = edge;
        start_pc;
        end_pc = -1;
        end_kind = "open";
        node_cycles = 0;
      }
    in
    incr node_count;
    nodes := n :: !nodes;
    n
  in
  let root = new_node ~parent:(-1) ~edge:"reset" ~start_pc:(-1) in
  let cur_node = ref root in
  let cur_pc = ref (-1) in
  Engine.set_first_possibly_hook eng
    (Some
       (fun id ->
         match first_toggle.(id) with
         | Some _ -> ()
         | None ->
           first_toggle.(id) <-
             Some
               {
                 ft_cycle = !total_cycles;
                 ft_node = (!cur_node).node_id;
                 ft_pc = !cur_pc;
               }));
  Fun.protect ~finally:(fun () -> Engine.set_first_possibly_hook eng None)
  @@ fun () ->
  init_system config sys;
  let constant_values = Engine.snapshot_values eng in
  (* -- the replay schedule: the exploration's decisions and the
     architectural state [replay] compares against -- *)
  let ops = ibuf () and regs = ibuf () and ram = ibuf () in
  let emit op payload = push ops ((payload lsl tag_bits) lor tag_of_op op) in
  let ar = System.arch_regs sys in
  let nregs = Array.length ar in
  (* a comparison point records the registers that changed since the
     previous one on the tape *)
  let last = Array.make (2 * nregs) (-1) and cur = [| 0; 0 |] in
  let record_regs op =
    let mask = ref 0 in
    for i = 0 to nregs - 1 do
      ar.(i).System.read cur;
      if cur.(0) <> last.(2 * i) || cur.(1) <> last.((2 * i) + 1) then begin
        mask := !mask lor (1 lsl i);
        last.(2 * i) <- cur.(0);
        last.((2 * i) + 1) <- cur.(1);
        push regs cur.(0);
        push regs cur.(1)
      end
    done;
    emit op !mask
  in
  let ram0 = Memory.snapshot (System.ram sys) in
  let record_halted () =
    record_regs Halted;
    let d = Memory.diff ~base:ram0 (System.ram sys) in
    push ram (Array.length d / 3);
    Array.iter (push ram) d
  in
  (* Conservative-state table keyed by (pc, GIE, stack context).
     Keeping interrupt-enabled/-disabled contexts and different stack
     contexts (SP bits 15:4) apart stops the merge from smearing one
     task's state into another's through shared code (handlers,
     context switches), which would otherwise drive SP to full X and
     make every X-address store conservatively touch the whole
     peripheral file.  Finer keys mean strictly less merging, so this
     only refines (never weakens) the paper's conservative scheme.
     Each key is interned to a dense int, its name in the schedule. *)
  let table : (int * int * int * (int * int), int * System.snapshot) Hashtbl.t =
    Hashtbl.create 256
  in
  let sp_bucket () =
    match core.Coredef.sp_reg with
    | None -> 0
    | Some sp -> (
      let v = System.reg sys sp in
      match Bvec.to_int (Array.sub v 4 (Array.length v - 4)) with
      | Some b -> b
      | None -> -1)
  in
  let gie_value () = if hk.gie < 0 then 0 else Engine.value_code eng hk.gie in
  (* For instructions that load PC from memory (returns), the return
     context — the core-defined key words, e.g. the stack top — is
     part of the key: states returning to different places are never
     merged, so each continues to its concrete target instead of
     producing an X program counter. *)
  let ret_context pcv =
    core.Coredef.ret_context ~rom_word
      ~read_reg:(fun r -> Bvec.to_int (System.reg sys r))
      ~read_ram_word:(fun a -> Bvec.to_int (System.read_ram_word sys a))
      ~pc:pcv
  in
  let table_key pcv = (pcv, gie_value (), sp_bucket (), ret_context pcv) in
  let stack : entry Stack.t = Stack.create () in

  (* Simulate from the current (settled, boundary) state to the next
     instruction boundary.  Returns the recorded conditional-jump
     candidates if the branch decision was unknown. *)
  let simulate_segment () =
    let t0 = System.start t_segment in
    let candidates = ref [] in
    let rec go cycles =
      if cycles = 20 then fail "instruction did not complete in 20 cycles";
      System.step_cycle sys;
      incr total_cycles;
      (!cur_node).node_cycles <- (!cur_node).node_cycles + 1;
      if !total_cycles > config.max_total_cycles then
        fail "exceeded max_total_cycles (%d)" config.max_total_cycles;
      (* record candidate targets at an unknown branch decision *)
      if
        Engine.value_code eng hk.exec_jump <> 0
        && Engine.value_code eng hk.branch_taken = Bit.code_x
      then begin
        match
          ( System.read_hook_int sys "branch_target",
            System.read_hook_int sys "branch_fallthrough" )
        with
        | Some t, Some f -> candidates := [ t; f ]
        | _ -> ()
      end;
      if System.halted sys then (`Halted, cycles + 1)
      else
        match System.insn_boundary_code sys with
        | 1 -> (`Boundary, cycles + 1)
        | 0 -> go (cycles + 1)
        | _ ->
          fail "FSM state became unknown (pc %s)" (Bvec.to_string (System.pc sys))
    in
    let r, cycles = go 0 in
    emit Seg cycles;
    System.stop t_segment t0;
    (r, !candidates)
  in

  (* Process one stack entry: run its path until pruned / halted /
     forked. *)
  let run_path (e : entry) =
    incr paths;
    if !paths > config.max_paths then fail "exceeded max_paths";
    System.restore sys e.snap;
    let nd = e.node in
    cur_node := nd;
    cur_pc := -1;
    let finish kind =
      nd.end_kind <- kind;
      nd.end_pc <- !cur_pc
    in
    let halt () =
      incr halted_paths;
      record_halted ();
      finish "halted"
    in
    let skip_table = ref e.skip_table in
    let candidates = ref e.candidates in
    let finished = ref false in
    while not !finished do
      if System.halted sys then begin
        halt ();
        finished := true
      end
      else begin
        record_regs Boundary;
        match Engine.read_int_ids eng hk.pc with
        | None when !candidates = [] ->
          (* a computed branch (RET/RETI/BR) whose target merged to
             X: every concrete predecessor pushed a concrete target and
             was explored before the merge, and X data reaching the
             code after the return is propagated by the table at the
             surrounding control points, so this merge-artifact path
             ends here *)
          incr escaped_paths;
          emit Escape 0;
          finish "escaped";
          finished := true
        | None ->
          (* conditional jump with unknown decision: fork on the
             recorded candidates *)
          let snap = System.snapshot sys in
          emit Fork (List.length !candidates);
          List.iter
            (fun t ->
              let s = System.force_dffs snap pc_slots t in
              let edge = Printf.sprintf "pc=0x%04x" t in
              (* prune eagerly if the table already covers this child *)
              let covered =
                Hashtbl.fold
                  (fun (p, _, _, _) (_, c) acc ->
                    acc
                    || p = t && System.snapshot_subsumes ~general:c ~specific:s)
                  table false
              in
              push ops ((t lsl 1) lor Bool.to_int covered);
              if covered then begin
                incr prunes;
                let child = new_node ~parent:nd.node_id ~edge ~start_pc:t in
                child.end_kind <- "pruned";
                child.end_pc <- t
              end
              else begin
                incr forks;
                Stack.push
                  { snap = s; candidates = []; skip_table = false;
                    node = new_node ~parent:nd.node_id ~edge ~start_pc:t }
                  stack
              end)
            !candidates;
          finish "forked";
          finished := true
        | Some pcv when
            (not (Coredef.in_rom core pcv)) || not (Hashtbl.mem insn_starts pcv)
          ->
          (* Only an over-approximate merged superstate can compute a
             PC outside the program (e.g. one that unwinds an empty
             stack).  No concrete execution of the binary reaches
             here, so ending the path loses no real activity; the
             count is reported for auditability. *)
          incr escaped_paths;
          emit Escape 0;
          cur_pc := pcv;
          finish "escaped";
          finished := true
        | Some pcv ->
          cur_pc := pcv;
          let info = classify ~pc:pcv in
          let is_ctl =
            info.Coredef.ci_control || Engine.value_code eng hk.irq_pending <> 0
          in
          if is_ctl && not !skip_table then begin
            let key = table_key pcv in
            let s = System.snapshot sys in
            match Hashtbl.find_opt table key with
            | Some (_, c) when System.snapshot_subsumes ~general:c ~specific:s ->
              incr prunes;
              emit Prune 0;
              finish "pruned";
              finished := true
            | Some (id, c) ->
              let m = System.snapshot_merge c s in
              Hashtbl.replace table key (id, m);
              incr merges;
              emit Merge id;
              System.restore sys m
            | None ->
              let id = Hashtbl.length table in
              Hashtbl.replace table key (id, s);
              emit Insert id
          end;
          skip_table := false;
          if not !finished then begin
            (* Fork on an unknown pending-interrupt condition.  The
               fork must leave [pending] definite in every child, so
               every X bit among {IFG0, GIE, IE0} is enumerated (at
               most 8 children). *)
            if Engine.value_code eng hk.irq_pending = Bit.code_x then begin
              let unknown =
                List.filter
                  (fun (_, id, _) -> Engine.value_code eng id = Bit.code_x)
                  (Lazy.force irq_sources)
              in
              if unknown = [] then
                fail "irq_pending X but its sources are known at %04x" pcv;
              emit Irq (List.fold_left (fun m (bit, _, _) -> m lor bit) 0 unknown);
              let children =
                irq_children (System.snapshot sys)
                  (List.map (fun (_, _, slot) -> slot) unknown)
              in
              (match children with
              | first :: rest ->
                List.iter
                  (fun c ->
                    incr forks;
                    Stack.push
                      { snap = c; candidates = []; skip_table = true;
                        node =
                          new_node ~parent:nd.node_id ~edge:"irq-case"
                            ~start_pc:pcv }
                      stack)
                  rest;
                System.restore sys first
              | [] -> assert false)
            end;
            match simulate_segment () with
            | `Halted, _ ->
              halt ();
              finished := true
            | `Boundary, cands -> candidates := cands
          end
      end
    done
  in

  (* reach the first instruction boundary (reset vector fetch) *)
  (match simulate_segment () with
  | `Boundary, _ -> ()
  | `Halted, _ ->
    incr halted_paths;
    root.end_kind <- "halted");
  Stack.push
    { snap = System.snapshot sys; candidates = []; skip_table = false;
      node = root }
    stack;
  while not (Stack.is_empty stack) do
    run_path (Stack.pop stack)
  done;
  if Obs.enabled () then begin
    Obs.Metrics.add m_branches !forks;
    Obs.Metrics.add m_merges !merges;
    Obs.Metrics.add m_prunes !prunes;
    Obs.Metrics.add m_paths !paths;
    Obs.Metrics.add m_cycles !total_cycles
  end;
  {
    possibly_toggled = Engine.possibly_toggled eng;
    constant_values;
    paths = !paths;
    merges = !merges;
    prunes = !prunes;
    total_cycles = !total_cycles;
    halted_paths = !halted_paths;
    escaped_paths = !escaped_paths;
    first_toggle;
    tree = Array.of_list (List.rev !nodes);
    schedule =
      {
        config;
        ops = contents ops;
        regs = contents regs;
        ram = contents ram;
        keys = Hashtbl.length table;
      };
  }

let analyze ?config sys =
  Obs.Span.with_alloc ~name:"analysis.analyze" (fun () -> analyze_impl ?config sys)

(* No bit known 0 in one dual-rail word and known 1 in the other.
   Re-synthesized logic is functionally equivalent but not ternary-
   precision-identical (X can propagate differently through an
   equivalent gate structure), so the replay checks consistency, not
   equality. *)
let rails_consistent alo ahi blo bhi =
  (alo land lnot ahi land bhi land lnot blo)
  lor (ahi land lnot alo land blo land lnot bhi)
  = 0

let bvec_of_rails ~width lo hi =
  Array.init width (fun i ->
      match ((lo lsr i) land 1, (hi lsr i) land 1) with
      | 1, 1 -> Bit.X
      | 0, 1 -> Bit.One
      | _ -> Bit.Zero)

let replay_impl r sys =
  let sc = r.schedule in
  let core = System.core sys in
  init_system sc.config sys;
  let ram0 = Memory.snapshot (System.ram sys) in
  let ar = System.arch_regs sys in
  let nregs = Array.length ar in
  (* the original's registers at the current comparison point *)
  let orig = Array.make (2 * nregs) 0 and cur = [| 0; 0 |] in
  let op_i = ref 0 and reg_i = ref 0 and ram_i = ref 0 in
  let next () =
    let x = sc.ops.(!op_i) in
    incr op_i;
    x
  in
  let compare context mask ~halted =
    for i = 0 to nregs - 1 do
      if mask land (1 lsl i) <> 0 then begin
        orig.(2 * i) <- sc.regs.(!reg_i);
        orig.((2 * i) + 1) <- sc.regs.(!reg_i + 1);
        reg_i := !reg_i + 2
      end
    done;
    Array.iteri
      (fun i r ->
        r.System.read cur;
        let lo = orig.(2 * i) and hi = orig.((2 * i) + 1) in
        if not (rails_consistent lo hi cur.(0) cur.(1)) then
          mismatch "%s: %s differs: original %s, bespoke %s" context
            (core.Coredef.reg_name r.index)
            (Bvec.to_string (bvec_of_rails ~width:r.width lo hi))
            (Bvec.to_string (bvec_of_rails ~width:r.width cur.(0) cur.(1))))
      ar;
    if System.halted sys <> halted then mismatch "%s: halt state differs" context
  in
  let compare_ram context =
    let n = sc.ram.(!ram_i) in
    let original = Memory.patch ram0 sc.ram ~pos:(!ram_i + 1) ~len:n in
    ram_i := !ram_i + 1 + (3 * n);
    if
      not
        (Memory.consistent_snapshots original (Memory.snapshot (System.ram sys)))
    then mismatch "%s: data memory differs at path end" context
  in
  let pc_slots = lazy (System.dff_slots sys "pc") in
  let irq_sources = lazy (irq_sources sys) in
  (* the replayed design's merge table; every key is inserted before it
     is merged, so the filler is never read *)
  let table = Array.make sc.keys (System.snapshot sys) in
  let stack = Stack.create () in
  let step cycles =
    let t0 = System.start t_segment in
    for _ = 1 to cycles do
      System.step_cycle sys
    done;
    System.stop t_segment t0
  in
  (* one path: replay ops up to the one that ends it *)
  let rec run_path () =
    let x = next () in
    let arg = x lsr tag_bits in
    match op_of_word x with
    | Seg ->
      step arg;
      run_path ()
    | Boundary ->
      compare "boundary" arg ~halted:false;
      run_path ()
    | Halted ->
      compare "halted path" arg ~halted:true;
      compare_ram "halted path"
    | Escape | Prune -> ()
    | Fork ->
      let snap = System.snapshot sys and pc_slots = Lazy.force pc_slots in
      for _ = 1 to arg do
        let c = next () in
        if c land 1 = 0 then
          Stack.push (System.force_dffs snap pc_slots (c lsr 1)) stack
      done
    | Insert ->
      table.(arg) <- System.snapshot sys;
      run_path ()
    | Merge ->
      let m = System.snapshot_merge table.(arg) (System.snapshot sys) in
      table.(arg) <- m;
      System.restore sys m;
      run_path ()
    | Irq ->
      let slots =
        List.filter_map
          (fun (bit, _, slot) -> if arg land bit <> 0 then Some slot else None)
          (Lazy.force irq_sources)
      in
      (match irq_children (System.snapshot sys) slots with
      | first :: rest ->
        List.iter (fun c -> Stack.push c stack) rest;
        System.restore sys first
      | [] -> assert false);
      run_path ()
  in
  (* the reset segment, then every path in the analysis' pop order *)
  step (next () lsr tag_bits);
  Stack.push (System.snapshot sys) stack;
  while not (Stack.is_empty stack) do
    System.restore sys (Stack.pop stack);
    run_path ()
  done

let replay r sys =
  Obs.Span.with_alloc ~name:"analysis.replay" (fun () -> replay_impl r sys)

let tree_dot ?(max_nodes = 4000) r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "digraph exec_tree {\n  rankdir=TB;\n\
    \  node [shape=box fontsize=9 fontname=\"monospace\"];\n";
  let n = Array.length r.tree in
  let shown = min n max_nodes in
  let pc_str p = if p < 0 then "?" else Printf.sprintf "0x%04x" p in
  for i = 0 to shown - 1 do
    let nd = r.tree.(i) in
    let color =
      match nd.end_kind with
      | "halted" -> "palegreen"
      | "pruned" -> "lightgray"
      | "escaped" -> "lightsalmon"
      | "forked" -> "lightblue"
      | _ -> "white"
    in
    Buffer.add_string b
      (Printf.sprintf
         "  n%d [label=\"#%d %s\\n%s -> %s\\n%d cycles\" style=filled \
          fillcolor=%s];\n"
         nd.node_id nd.node_id nd.end_kind (pc_str nd.start_pc)
         (pc_str nd.end_pc) nd.node_cycles color);
    (* a node's parent always has a smaller id, so it is never cut off
       by the [max_nodes] truncation before its children *)
    if nd.parent >= 0 then
      Buffer.add_string b
        (Printf.sprintf "  n%d -> n%d [label=\"%s\" fontsize=8];\n" nd.parent
           nd.node_id nd.edge_label)
  done;
  if shown < n then
    Buffer.add_string b
      (Printf.sprintf "  trunc [label=\"... %d more nodes\" shape=plaintext];\n"
         (n - shown));
  Buffer.add_string b "}\n";
  Buffer.contents b

let exercisable_count r =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.possibly_toggled
