(* The reference semantics of the gate-level engine: every settle
   re-evaluates the whole levelized order, one gate at a time, through
   [Bit]'s ternary functions tabulated over value codes.  The compiled engine
   ([Bespoke_sim.Compile]) must agree with it bit for bit on values,
   toggle counts and possibly-toggled flags; the differential tests
   and the engine benchmark get it behind the same [Engine] seam. *)

module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine

module Impl = struct
  type t = {
    net : Netlist.t;
    order : int array;  (* levelized combinational order *)
    input_cone : int array;  (* the part of [order] that reads an input *)
    mutable settled : bool;  (* a full sweep ran since [create] *)
    values : Bytes.t;  (* current settled value per gate, codes 0/1/2 *)
    prev : Bytes.t;  (* settled value at the last committed cycle *)
    dffs : int array;
    dff_next : Bytes.t;  (* scratch for the clock edge *)
    toggles : int array;
    possibly : Bytes.t;  (* 0/1 flags *)
    mutable committed : int;
    mutable on_first_possibly : (int -> unit) option;
    mutable on_cycle : (int -> unit) option;
  }

  let create net =
    let ng = Netlist.gate_count net in
    let order = Netlist.levelize net in
    let reads_input =
      Array.map (fun (g : Gate.t) -> g.op = Gate.Input) net.Netlist.gates
    in
    Array.iter
      (fun id ->
        reads_input.(id) <-
          Array.exists (fun f -> reads_input.(f)) net.Netlist.gates.(id).fanin)
      order;
    let dffs =
      List.filter
        (fun id -> Gate.is_sequential net.Netlist.gates.(id))
        (List.init ng Fun.id)
      |> Array.of_list
    in
    {
      net;
      order;
      input_cone =
        Array.of_list (List.filter (fun id -> reads_input.(id)) (Array.to_list order));
      settled = false;
      values = Bytes.make ng (Char.chr Bit.code_x);
      prev = Bytes.make ng (Char.chr Bit.code_x);
      dffs;
      dff_next = Bytes.make (Array.length dffs) '\000';
      toggles = Array.make ng 0;
      possibly = Bytes.make ng '\000';
      committed = 0;
      on_first_possibly = None;
      on_cycle = None;
    }

  let netlist s = s.net
  let get s id = Char.code (Bytes.unsafe_get s.values id)
  let put s id c = Bytes.unsafe_set s.values id (Char.unsafe_chr c)

  (* The gate functions straight from [Bit], tabulated over value codes:
     [a * 3 + b], and [sel * 9 + a * 3 + b] for a Mux [sel; a; b]. *)
  let tbl2 f =
    Array.init 9 (fun i ->
        Bit.to_int (f (Bit.of_int_exn (i / 3)) (Bit.of_int_exn (i mod 3))))

  let tbl_not = Array.init 3 (fun a -> Bit.to_int (Bit.lnot (Bit.of_int_exn a)))
  let tbl_and = tbl2 Bit.land_
  let tbl_or = tbl2 Bit.lor_
  let tbl_nand = tbl2 Bit.lnand
  let tbl_nor = tbl2 Bit.lnor
  let tbl_xor = tbl2 Bit.lxor_
  let tbl_xnor = tbl2 Bit.lxnor
  let tbl_mux = Array.init 27 (fun i -> (tbl2 (Bit.mux (Bit.of_int_exn (i / 9)))).(i mod 9))

  let eval_one s id =
    let g = s.net.Netlist.gates.(id) in
    let f = g.Gate.fanin in
    let a = get s f.(0) in
    put s id
      (match g.Gate.op with
      | Gate.Buf -> a
      | Gate.Not -> tbl_not.(a)
      | Gate.Mux -> tbl_mux.((a * 9) + (get s f.(1) * 3) + get s f.(2))
      | op -> (
        let ab = (a * 3) + get s f.(1) in
        match op with
        | Gate.And -> tbl_and.(ab)
        | Gate.Or -> tbl_or.(ab)
        | Gate.Nand -> tbl_nand.(ab)
        | Gate.Nor -> tbl_nor.(ab)
        | Gate.Xor -> tbl_xor.(ab)
        | Gate.Xnor -> tbl_xnor.(ab)
        | _ -> assert false))

  let sweep s =
    Array.iter (eval_one s) s.order;
    s.settled <- true

  (* Between full sweeps only inputs change, so settling re-evaluates
     just the gates that read one. *)
  let eval s = if s.settled then Array.iter (eval_one s) s.input_cone else sweep s

  let reset s =
    Array.iteri
      (fun id (g : Gate.t) ->
        match g.op with
        | Gate.Const b | Gate.Dff b -> put s id (Bit.to_int b)
        | Gate.Input -> put s id Bit.code_x
        | _ -> ())
      s.net.Netlist.gates;
    sweep s;
    Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values);
    s.committed <- 0

  let step s =
    Array.iteri
      (fun i id ->
        let d = s.net.Netlist.gates.(id).Gate.fanin.(0) in
        Bytes.set s.dff_next i (Bytes.get s.values d))
      s.dffs;
    Array.iteri (fun i id -> Bytes.set s.values id (Bytes.get s.dff_next i)) s.dffs;
    sweep s

  let commit_cycle s =
    for id = 0 to Bytes.length s.values - 1 do
      let cur = get s id and old = Char.code (Bytes.get s.prev id) in
      if cur <> old then s.toggles.(id) <- s.toggles.(id) + 1;
      if (cur <> old || cur = Bit.code_x) && Bytes.get s.possibly id = '\000'
      then begin
        Bytes.set s.possibly id '\001';
        Option.iter (fun f -> f id) s.on_first_possibly
      end
    done;
    Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values);
    s.committed <- s.committed + 1;
    Option.iter (fun f -> f s.committed) s.on_cycle

  let value_code = get

  let set_gate s id b =
    (match s.net.Netlist.gates.(id).Gate.op with
    | Gate.Input -> ()
    | op ->
      invalid_arg
        (Printf.sprintf "Sweep.set_gate: gate %d is %s, not an input" id
           (Gate.op_name op)));
    put s id (Bit.to_int b)

  let set_gates_int s ids v =
    Array.iteri
      (fun i id -> set_gate s id (if (v lsr i) land 1 = 1 then Bit.One else Bit.Zero))
      ids

  let read_int_ids s ids =
    let v = ref 0 and known = ref true in
    Array.iteri
      (fun i id ->
        let cd = get s id in
        if cd > 1 then known := false else v := !v lor (cd lsl i))
      ids;
    if !known then Some !v else None

  let rails_reader s ids dst =
    dst.(0) <- 0;
    dst.(1) <- 0;
    Array.iteri
      (fun i id ->
        let cd = get s id in
        if cd <> 1 then dst.(0) <- dst.(0) lor (1 lsl i);
        if cd <> 0 then dst.(1) <- dst.(1) lor (1 lsl i))
      ids

  let toggle_counts s = Array.copy s.toggles

  let possibly_toggled s =
    Array.init (Bytes.length s.possibly) (fun i -> Bytes.get s.possibly i <> '\000')

  let sync_prev s = Bytes.blit s.values 0 s.prev 0 (Bytes.length s.values)

  let set_first_possibly_hook s f = s.on_first_possibly <- f
  let set_cycle_hook s f = s.on_cycle <- f
  let dff_ids s = s.dffs

  (* DFF [i] (in [dffs] order) sits at bit [i mod 62] of pair [i / 62] *)
  let slot i = ((i / 62) lsl 6) lor (i mod 62)
  let pairs s = (Array.length s.dffs + 61) / 62

  let dff_rails s =
    let r = Array.make (2 * pairs s) 0 in
    Array.iteri
      (fun i id -> Engine.set_slot r (slot i) (Bit.of_int_exn (get s id)))
      s.dffs;
    r

  let restore_dff_rails s r =
    if Array.length r <> 2 * pairs s then
      invalid_arg "Sweep.restore_dff_rails: size mismatch";
    Array.iteri (fun i id -> put s id (Engine.slot_code r (slot i))) s.dffs;
    sweep s

  let dff_slot s id =
    let rec find i =
      if i >= Array.length s.dffs then -1
      else if s.dffs.(i) = id then slot i
      else find (i + 1)
    in
    find 0

  (* one scalar evaluation per check: the oracle the compiled
     engine's word-packed checks are tested against *)
  let checks s (cs : Engine.check array) () =
    Array.exists
      (fun (c : Engine.check) ->
        let v = function
          | Engine.Net id -> Bit.of_int_exn (get s id)
          | Engine.Tie b -> b
        in
        Engine.convicts c (Bit.to_int (Gate.eval c.c_op (Array.map v c.c_fanin))))
      cs
end

let create net = Engine.make (module Impl) (Impl.create net)

(* The sequential-constant fixpoint: the DFFs that provably hold
   their reset value forever.  Each round resets a sweep engine,
   drives every input X, loads the stuck DFFs' inits (the others X),
   settles, and demotes every DFF whose D pin is not definitely its
   init.  The tests run it on raw cuts as the witness that the
   analysis leaves no DFF stuck at its reset value ([Witness]). *)
let stuck_dffs net =
  let eng = create net in
  let dffs = Engine.dff_ids eng in
  let init_of id =
    match net.Netlist.gates.(id).Gate.op with
    | Gate.Dff v -> v
    | _ -> assert false
  in
  let stuck = Array.map (fun _ -> true) dffs in
  let changed = ref true in
  while !changed do
    changed := false;
    Engine.reset eng;
    Engine.set_all_inputs_x eng;
    let r = Engine.dff_rails eng in
    Array.iteri
      (fun i id ->
        Engine.set_slot r (Engine.dff_slot eng id)
          (if stuck.(i) then init_of id else Bit.X))
      dffs;
    Engine.restore_dff_rails eng r;
    Array.iteri
      (fun i id ->
        if stuck.(i) then begin
          let d = net.Netlist.gates.(id).Gate.fanin.(0) in
          if not (Bit.equal (Engine.value eng d) (init_of id)) then begin
            stuck.(i) <- false;
            changed := true
          end
        end)
      dffs
  done;
  let by_gate = Array.make (Netlist.gate_count net) false in
  Array.iteri (fun i id -> by_gate.(id) <- stuck.(i)) dffs;
  by_gate
