module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Obs = Bespoke_obs.Obs

(* Telemetry (all no-ops unless Obs is enabled): total gate
   re-evaluations and settle sweeps of the full-sweep engine.  Counting
   is flushed once per settle so the disabled-path cost is one flag
   check per sweep. *)
let m_gate_evals = Obs.Metrics.counter "sim.gate_evals"
let m_settles = Obs.Metrics.counter "sim.settle_iterations"

(* Compiled opcodes for the inner evaluation loop. *)
let op_buf = 0

and op_not = 1

and op_and = 2

and op_or = 3

and op_nand = 4

and op_nor = 5

and op_xor = 6

and op_xnor = 7

and op_mux = 8

type mode = Full | Compiled

(* [Full] mode state: the levelized reference sweep. *)
type sweep = {
  net : Netlist.t;
  order : int array;  (* levelized combinational order *)
  opcode : int array;
  fi0 : int array;
  fi1 : int array;
  fi2 : int array;
  values : Bytes.t;  (* current settled value per gate, codes 0/1/2 *)
  prev : Bytes.t;  (* settled value at the last committed cycle *)
  dffs : int array;
  dff_next : Bytes.t;  (* scratch for the clock edge *)
  toggles : int array;
  possibly : Bytes.t;  (* 0/1 flags *)
  mutable committed : int;
  topo_index : int array;  (* position of each gate in [order], -1 for sources *)
  mutable on_first_possibly : (int -> unit) option;
      (* provenance hook: called once per gate, when it is first
         marked possibly-toggled *)
  mutable on_cycle : (int -> unit) option;
      (* probe hook: called after every [commit_cycle] with the new
         committed count (guard shadow watchers) *)
}

type t =
  | Sweep of sweep
  | Prog of { comp : Compile.t; mutable c_on_cycle : (int -> unit) option }
      (* [Compiled] mode: every operation delegates to the compiled
         word-level engine; [c_on_cycle] is the probe hook, which
         {!Compile} does not carry itself *)

type cone = int array  (* gate ids in topological order, excluding sources *)

let code_of_bit = Bit.to_int
let bit_of_code = Bit.of_int_exn

let create_sweep net =
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
        (* [step] reads the D pin through fi0 even though DFFs are
           sources for levelization purposes. *)
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
  let topo_index = Array.make ng (-1) in
  Array.iteri (fun pos id -> topo_index.(id) <- pos) order;
  let dffs = Array.of_list (List.rev !dffs) in
  {
    net;
    order;
    opcode;
    fi0;
    fi1;
    fi2;
    values = Bytes.make ng (Char.chr Bit.code_x);
    prev = Bytes.make ng (Char.chr Bit.code_x);
    dffs;
    dff_next = Bytes.make (Array.length dffs) '\000';
    toggles = Array.make ng 0;
    possibly = Bytes.make ng '\000';
    committed = 0;
    topo_index;
    on_first_possibly = None;
    on_cycle = None;
  }

let create ?(mode = Compiled) net =
  match mode with
  | Full -> Sweep (create_sweep net)
  | Compiled -> Prog { comp = Compile.create net; c_on_cycle = None }

let netlist = function Sweep s -> s.net | Prog p -> Compile.netlist p.comp
let get s id = Char.code (Bytes.unsafe_get s.values id)
let put s id c = Bytes.unsafe_set s.values id (Char.unsafe_chr c)

(* Mux fanin layout is [sel; a; b]: fi0 = sel, fi1 = a, fi2 = b, so the
   table index must be sel*9 + a*3 + b. *)
let eval_one s id =
  let c = s.opcode.(id) in
  let a = get s s.fi0.(id) in
  put s id
    (if c = op_buf then a
     else if c = op_not then Bit.tbl_not.(a)
     else
       let b = get s s.fi1.(id) in
       if c = op_and then Bit.tbl_and.((a * 3) + b)
       else if c = op_or then Bit.tbl_or.((a * 3) + b)
       else if c = op_nand then Bit.tbl_nand.((a * 3) + b)
       else if c = op_nor then Bit.tbl_nor.((a * 3) + b)
       else if c = op_xor then Bit.tbl_xor.((a * 3) + b)
       else if c = op_xnor then Bit.tbl_xnor.((a * 3) + b)
       else
         let sel = get s s.fi2.(id) in
         Bit.tbl_mux.((a * 9) + (b * 3) + sel))

let eval_full s =
  let order = s.order in
  for k = 0 to Array.length order - 1 do
    eval_one s order.(k)
  done;
  if Obs.enabled () then begin
    Obs.Metrics.add m_gate_evals (Array.length order);
    Obs.Metrics.incr m_settles
  end

let eval = function Sweep s -> eval_full s | Prog p -> Compile.eval p.comp

let make_cone t (sources : int array) =
  match t with
  | Prog _ -> [||]  (* pending-instruction tracking subsumes cones *)
  | Sweep s ->
    let ng = Netlist.gate_count s.net in
    let fanout = Netlist.fanout s.net in
    let in_cone = Array.make ng false in
    let stack = Stack.create () in
    let visit id =
      Array.iter
        (fun r ->
          if (not in_cone.(r)) && not (Gate.is_source s.net.Netlist.gates.(r))
          then begin
            in_cone.(r) <- true;
            Stack.push r stack
          end)
        fanout.(id)
    in
    Array.iter visit sources;
    while not (Stack.is_empty stack) do
      visit (Stack.pop stack)
    done;
    let members = ref [] in
    Array.iteri (fun id b -> if b then members := id :: !members) in_cone;
    let cone = Array.of_list !members in
    Array.sort (fun a b -> Int.compare s.topo_index.(a) s.topo_index.(b)) cone;
    cone

let eval_cone t (cone : cone) =
  match t with
  | Prog p -> Compile.eval p.comp
  | Sweep s ->
    for k = 0 to Array.length cone - 1 do
      eval_one s cone.(k)
    done

let set_gate t id b =
  match t with
  | Prog p -> Compile.set_gate p.comp id b
  | Sweep s ->
    (match s.net.Netlist.gates.(id).op with
    | Gate.Input -> ()
    | op ->
      invalid_arg
        (Printf.sprintf "Engine.set_gate: gate %d is %s, not an input" id
           (Gate.op_name op)));
    put s id (code_of_bit b)

let set_gates_int t (ids : int array) v =
  match t with
  | Prog p -> Compile.set_gates_int p.comp ids v
  | Sweep _ ->
    Array.iteri
      (fun i id ->
        set_gate t id (if (v lsr i) land 1 = 1 then Bit.One else Bit.Zero))
      ids

let set_input t name (v : Bvec.t) =
  match t with
  | Prog p -> Compile.set_input p.comp name v
  | Sweep s ->
    let ids = Netlist.find_input s.net name in
    if Array.length ids <> Bvec.width v then
      invalid_arg (Printf.sprintf "Engine.set_input %s: width mismatch" name);
    Array.iteri (fun i id -> set_gate t id v.(i)) ids

let set_input_int t name n =
  match t with
  | Prog p -> Compile.set_input_int p.comp name n
  | Sweep s ->
    let w = Array.length (Netlist.find_input s.net name) in
    set_input t name (Bvec.of_int ~width:w n)

let set_input_x t name =
  match t with
  | Prog p -> Compile.set_input_x p.comp name
  | Sweep s ->
    Array.iter (fun id -> set_gate t id Bit.X) (Netlist.find_input s.net name)

let set_all_inputs_x t =
  match t with
  | Prog p -> Compile.set_all_inputs_x p.comp
  | Sweep s ->
    List.iter (fun (name, _) -> set_input_x t name) s.net.Netlist.input_ports

let value t id =
  match t with
  | Prog p -> Compile.value p.comp id
  | Sweep s -> bit_of_code (get s id)

let value_code t id =
  match t with Prog p -> Compile.value_code p.comp id | Sweep s -> get s id

let read_int_ids t (ids : int array) =
  match t with
  | Prog p -> Compile.read_ids_int p.comp ids
  | Sweep s ->
    let v = ref 0 and known = ref true in
    Array.iteri
      (fun i id ->
        let cd = get s id in
        if cd > 1 then known := false else v := !v lor (cd lsl i))
      ids;
    if !known then Some !v else None

let rails_reader t (ids : int array) =
  match t with
  | Prog p -> Compile.rails_reader p.comp ids
  | Sweep s ->
    fun dst ->
      let lo = ref 0 and hi = ref 0 in
      Array.iteri
        (fun i id ->
          let cd = get s id in
          if cd <> 1 then lo := !lo lor (1 lsl i);
          if cd <> 0 then hi := !hi lor (1 lsl i))
        ids;
      dst.(0) <- !lo;
      dst.(1) <- !hi

let read t name =
  match t with
  | Prog p -> Compile.read p.comp name
  | Sweep s ->
    Array.map (fun id -> bit_of_code (get s id)) (Netlist.find_name s.net name)

let read_int t name =
  match t with
  | Prog p -> Compile.read_int p.comp name
  | Sweep _ -> Bvec.to_int (read t name)

let reset = function
  | Prog p -> Compile.reset p.comp
  | Sweep s ->
    Array.iteri
      (fun id (g : Gate.t) ->
        match g.op with
        | Gate.Const b -> put s id (code_of_bit b)
        | Gate.Input -> put s id Bit.code_x
        | Gate.Dff init -> put s id (code_of_bit init)
        | _ -> ())
      s.net.Netlist.gates;
    eval_full s;
    Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values);
    s.committed <- 0

let step = function
  | Prog p -> Compile.step p.comp
  | Sweep s ->
    let dffs = s.dffs in
    for i = 0 to Array.length dffs - 1 do
      Bytes.unsafe_set s.dff_next i (Char.unsafe_chr (get s s.fi0.(dffs.(i))))
    done;
    for i = 0 to Array.length dffs - 1 do
      put s dffs.(i) (Char.code (Bytes.unsafe_get s.dff_next i))
    done;
    eval_full s

let commit_cycle = function
  | Prog p -> (
    Compile.commit_cycle p.comp;
    match p.c_on_cycle with
    | None -> ()
    | Some f -> f (Compile.cycles_committed p.comp))
  | Sweep s -> (
    for id = 0 to Bytes.length s.values - 1 do
      let cur = Char.code (Bytes.unsafe_get s.values id) in
      let old = Char.code (Bytes.unsafe_get s.prev id) in
      if cur <> old then s.toggles.(id) <- s.toggles.(id) + 1;
      if
        (cur <> old || cur = Bit.code_x)
        && Bytes.unsafe_get s.possibly id = '\000'
      then begin
        Bytes.unsafe_set s.possibly id '\001';
        match s.on_first_possibly with None -> () | Some f -> f id
      end
    done;
    Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values);
    s.committed <- s.committed + 1;
    match s.on_cycle with None -> () | Some f -> f s.committed)

let set_first_possibly_hook t f =
  match t with
  | Prog p -> Compile.set_first_possibly_hook p.comp f
  | Sweep s -> s.on_first_possibly <- f

let set_cycle_hook t f =
  match t with Prog p -> p.c_on_cycle <- f | Sweep s -> s.on_cycle <- f

let toggle_counts = function
  | Prog p -> Compile.toggle_counts p.comp
  | Sweep s -> Array.copy s.toggles

let possibly_toggled = function
  | Prog p -> Compile.possibly_toggled p.comp
  | Sweep s ->
    Array.init (Bytes.length s.possibly) (fun i ->
        Bytes.get s.possibly i <> '\000')

let merge_possibly_toggled_into t (acc : bool array) =
  match t with
  | Prog p -> Compile.merge_possibly_toggled_into p.comp acc
  | Sweep s ->
    for i = 0 to Bytes.length s.possibly - 1 do
      if Bytes.unsafe_get s.possibly i <> '\000' then acc.(i) <- true
    done

let clear_activity = function
  | Prog p -> Compile.clear_activity p.comp
  | Sweep s ->
    Array.fill s.toggles 0 (Array.length s.toggles) 0;
    Bytes.fill s.possibly 0 (Bytes.length s.possibly) '\000';
    Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values);
    s.committed <- 0

let sync_prev = function
  | Prog p -> Compile.sync_prev p.comp
  | Sweep s -> Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values)

let snapshot_values = function
  | Prog p -> Compile.snapshot_values p.comp
  | Sweep s ->
    Array.init (Bytes.length s.values) (fun i -> bit_of_code (get s i))

let dff_ids = function
  | Prog p -> Compile.dff_ids p.comp
  | Sweep s -> Array.copy s.dffs

let dff_state = function
  | Prog p -> Compile.dff_state p.comp
  | Sweep s -> Array.map (fun id -> bit_of_code (get s id)) s.dffs

let restore_dff_state t (st : Bvec.t) =
  match t with
  | Prog p -> Compile.restore_dff_state p.comp st
  | Sweep s ->
    if Bvec.width st <> Array.length s.dffs then
      invalid_arg "Engine.restore_dff_state: width mismatch";
    Array.iteri (fun i id -> put s id (code_of_bit st.(i))) s.dffs;
    eval_full s

type source = Compile.source = Net of int | Tie of Bit.t

type check = Compile.check = {
  c_op : Gate.op;
  c_fanin : source array;
  c_assumed : Bit.t;
}

type checks = Packed of Compile.checks | Scalar of t * check array

let check_code t c =
  Bit.to_int
    (Gate.eval c.c_op
       (Array.map (function Net id -> value t id | Tie b -> b) c.c_fanin))

let convicts c code = code <> Bit.code_x && code <> Bit.to_int c.c_assumed

let checks t cs =
  match t with
  | Prog p -> Packed (Compile.lower_checks p.comp cs)
  | Sweep _ -> Scalar (t, cs)

let any_violated = function
  | Packed k -> Compile.any_violated k
  | Scalar (t, cs) -> Array.exists (fun c -> convicts c (check_code t c)) cs
