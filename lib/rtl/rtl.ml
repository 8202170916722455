module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist

type op2 = Band | Bor | Bxor | Bxnor

type signal = { id : int; w : int; node : node; scope : string }

and node =
  | Input of string
  | Const of Bit.t array
  | Not of signal
  | Op2 of op2 * signal * signal
  | Mux2 of signal * signal * signal  (* sel, f, t *)
  | Concat of signal list  (* LSB-first parts *)
  | Select of signal * int * int  (* hi, lo *)
  | Adder of signal * signal * signal  (* a, b, cin; width = w a + 1 *)
  | Reg of regspec
  | Wire of wirecell

and regspec = {
  init : int;
  d : signal;
  enable : signal option;
  clear : signal option;
  clear_to : int;
}

and wirecell = { mutable driver : signal option }

type builder = {
  mutable inputs : (string * signal) list;  (* reverse order *)
  mutable outputs : (string * signal) list;
  mutable named : (string * signal) list;
  mutable scope_stack : string list;
}

(* Signal ids only need to be unique (lowering memoizes by id), so one
   atomic counter serves builds in any number of domains; the scope new
   signals are tagged with belongs to the build running in the calling
   domain. *)
let next_id = Atomic.make 0
let ambient_scope = Domain.DLS.new_key (fun () -> "")

let fresh node w scope =
  { id = Atomic.fetch_and_add next_id 1 + 1; w; node; scope }

let mk node w = fresh node w (Domain.DLS.get ambient_scope)

let create_builder () =
  { inputs = []; outputs = []; named = []; scope_stack = [] }

let width s = s.w

let scope_path stack = String.concat "/" (List.rev stack)

let in_scope b name f =
  b.scope_stack <- name :: b.scope_stack;
  let saved = Domain.DLS.get ambient_scope in
  Domain.DLS.set ambient_scope (scope_path b.scope_stack);
  let finally () =
    b.scope_stack <- List.tl b.scope_stack;
    Domain.DLS.set ambient_scope saved
  in
  match f () with
  | v ->
    finally ();
    v
  | exception e ->
    finally ();
    raise e

let at_scope b path f =
  let saved_stack = b.scope_stack in
  let saved = Domain.DLS.get ambient_scope in
  b.scope_stack <- [ path ];
  Domain.DLS.set ambient_scope path;
  let finally () =
    b.scope_stack <- saved_stack;
    Domain.DLS.set ambient_scope saved
  in
  match f () with
  | v ->
    finally ();
    v
  | exception e ->
    finally ();
    raise e

let input b name w =
  if List.mem_assoc name b.inputs then
    invalid_arg (Printf.sprintf "Rtl.input: duplicate port %S" name);
  let s = mk (Input name) w in
  b.inputs <- (name, s) :: b.inputs;
  s

let output b name s =
  if List.mem_assoc name b.outputs then
    invalid_arg (Printf.sprintf "Rtl.output: duplicate port %S" name);
  b.outputs <- (name, s) :: b.outputs

let name_net b name s =
  if List.mem_assoc name b.named then
    invalid_arg (Printf.sprintf "Rtl.name_net: duplicate name %S" name);
  b.named <- (name, s) :: b.named

let constant ~width:w n =
  mk (Const (Array.init w (fun i -> Bit.of_bool ((n lsr i) land 1 = 1)))) w

let zero w = constant ~width:w 0
let ones w = constant ~width:w ((1 lsl w) - 1)
let vdd = constant ~width:1 1
let gnd = constant ~width:1 0

let check_same name a b =
  if a.w <> b.w then
    invalid_arg
      (Printf.sprintf "Rtl.%s: width mismatch (%d vs %d)" name a.w b.w)

let ( ~: ) a = mk (Not a) a.w

let op2 name op a b =
  check_same name a b;
  mk (Op2 (op, a, b)) a.w

let ( &: ) a b = op2 "(&:)" Band a b
let ( |: ) a b = op2 "(|:)" Bor a b
let ( ^: ) a b = op2 "(^:)" Bxor a b
let xnor a b = op2 "xnor" Bxnor a b

let mux2 sel f t =
  if sel.w <> 1 then invalid_arg "Rtl.mux2: selector must be 1 bit";
  check_same "mux2" f t;
  mk (Mux2 (sel, f, t)) f.w

let concat parts =
  match parts with
  | [] -> invalid_arg "Rtl.concat: empty"
  | [ s ] -> s
  | _ -> mk (Concat parts) (List.fold_left (fun acc s -> acc + s.w) 0 parts)

let select s ~hi ~lo =
  if lo < 0 || hi < lo || hi >= s.w then
    invalid_arg
      (Printf.sprintf "Rtl.select: [%d:%d] out of range for width %d" hi lo s.w);
  if lo = 0 && hi = s.w - 1 then s else mk (Select (s, hi, lo)) (hi - lo + 1)

let bit s i = select s ~hi:i ~lo:i
let msb s = bit s (s.w - 1)

let repeat s n =
  if n <= 0 then invalid_arg "Rtl.repeat: n <= 0";
  concat (List.init n (fun _ -> s))

let uresize s w =
  if w = s.w then s
  else if w < s.w then select s ~hi:(w - 1) ~lo:0
  else concat [ s; zero (w - s.w) ]

let sresize s w =
  if w = s.w then s
  else if w < s.w then select s ~hi:(w - 1) ~lo:0
  else concat [ s; repeat (msb s) (w - s.w) ]

let rec mux sel cases =
  let n = List.length cases in
  if n <> 1 lsl sel.w then
    invalid_arg
      (Printf.sprintf "Rtl.mux: %d cases for a %d-bit selector" n sel.w);
  match cases with
  | [ only ] -> only
  | _ ->
    let rec split i = function
      | [] -> ([], [])
      | x :: rest ->
        let a, b = split (i + 1) rest in
        if i < n / 2 then (x :: a, b) else (a, x :: b)
    in
    let lo_cases, hi_cases = split 0 cases in
    let sel_rest = select sel ~hi:(sel.w - 1) ~lo:(sel.w - 1) in
    if sel.w = 1 then mux2 sel (List.nth cases 0) (List.nth cases 1)
    else
      let sel_lo = select sel ~hi:(sel.w - 2) ~lo:0 in
      mux2 sel_rest (mux sel_lo lo_cases) (mux sel_lo hi_cases)

let onehot_select pairs ~default =
  match pairs with
  | [] -> default
  | (_, v0) :: _ ->
    let w = v0.w in
    let masked =
      List.map (fun (en, v) -> repeat en w &: v) pairs
    in
    let any = List.fold_left (fun acc (en, _) -> acc |: en) gnd pairs in
    let ored = List.fold_left ( |: ) (List.hd masked) (List.tl masked) in
    ored |: (repeat (~:any) w &: default)

let adder ?cin a b =
  check_same "add" a b;
  let cin = match cin with Some c -> c | None -> gnd in
  if cin.w <> 1 then invalid_arg "Rtl.add: carry-in must be 1 bit";
  mk (Adder (a, b, cin)) (a.w + 1)

let add ?cin a b = select (adder ?cin a b) ~hi:(a.w - 1) ~lo:0

let add_co ?cin a b =
  let s = adder ?cin a b in
  (select s ~hi:(a.w - 1) ~lo:0, bit s a.w)

let sub_co a b =
  let s = adder ~cin:vdd a (~:b) in
  (select s ~hi:(a.w - 1) ~lo:0, bit s a.w)

let sub a b = fst (sub_co a b)

let reduce_or s =
  let rec go acc i = if i >= s.w then acc else go (acc |: bit s i) (i + 1) in
  if s.w = 1 then s else go (bit s 0) 1

let is_zero s = ~:(reduce_or s)
let ( ==: ) a b = is_zero (a ^: b)
let ( <>: ) a b = reduce_or (a ^: b)
let eq_const a n = a ==: constant ~width:a.w n

let ( <: ) a b =
  (* unsigned: a < b iff no carry-out of a + ~b + 1 *)
  let _, cout = sub_co a b in
  ~:cout

let ( >=: ) a b = ~:(a <: b)

let sll_const s n =
  if n = 0 then s
  else if n >= s.w then zero s.w
  else concat [ zero n; select s ~hi:(s.w - 1 - n) ~lo:0 ]

let srl_const s n =
  if n = 0 then s
  else if n >= s.w then zero s.w
  else concat [ select s ~hi:(s.w - 1) ~lo:n; zero n ]

let ( *: ) a b =
  (* shift-add array multiplier *)
  let wout = a.w + b.w in
  let acc = ref (zero wout) in
  for i = 0 to b.w - 1 do
    let pp = repeat (bit b i) a.w &: a in
    let shifted = if i = 0 then pp else concat [ zero i; pp ] in
    acc := add !acc (uresize shifted wout)
  done;
  !acc

let reg b ?enable ?clear ?(clear_to = 0) ~init d =
  ignore b;
  mk (Reg { init; d; enable; clear; clear_to }) d.w

let wire w = mk (Wire { driver = None }) w

let ( <== ) w s =
  match w.node with
  | Wire cell ->
    (match cell.driver with
    | Some _ -> invalid_arg "Rtl.(<==): wire already assigned"
    | None ->
      if w.w <> s.w then invalid_arg "Rtl.(<==): width mismatch";
      cell.driver <- Some s)
  | _ -> invalid_arg "Rtl.(<==): not a wire"

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                  *)

let eval_comb env root =
  let memo : (int, Bvec.t) Hashtbl.t = Hashtbl.create 64 in
  let visiting : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec go s =
    match Hashtbl.find_opt memo s.id with
    | Some v -> v
    | None ->
      let v =
        match s.node with
        | Input name ->
          let v = env name in
          if Bvec.width v <> s.w then
            invalid_arg
              (Printf.sprintf "Rtl.eval_comb: input %S width mismatch" name);
          v
        | Const bits -> Array.copy bits
        | Not a -> Bvec.lnot (go a)
        | Op2 (Band, a, b) -> Bvec.land_ (go a) (go b)
        | Op2 (Bor, a, b) -> Bvec.lor_ (go a) (go b)
        | Op2 (Bxor, a, b) -> Bvec.lxor_ (go a) (go b)
        | Op2 (Bxnor, a, b) -> Bvec.lnot (Bvec.lxor_ (go a) (go b))
        | Mux2 (sel, f, t) ->
          let sv = (go sel).(0) and fv = go f and tv = go t in
          Array.init s.w (fun i -> Bit.mux sv fv.(i) tv.(i))
        | Concat parts ->
          Array.concat (List.map (fun p -> Array.to_list (go p) |> Array.of_list) parts)
        | Select (a, hi, lo) ->
          let av = go a in
          Array.sub av lo (hi - lo + 1)
        | Adder (a, b, cin) ->
          let av = go a and bv = go b and cv = (go cin).(0) in
          let out = Array.make (s.w) Bit.X in
          let carry = ref cv in
          for i = 0 to a.w - 1 do
            let x = av.(i) and y = bv.(i) and c = !carry in
            out.(i) <- Bit.lxor_ (Bit.lxor_ x y) c;
            carry := Bit.lor_ (Bit.land_ x y) (Bit.land_ c (Bit.lor_ x y))
          done;
          out.(a.w) <- !carry;
          out
        | Reg _ -> invalid_arg "Rtl.eval_comb: sequential node"
        | Wire cell -> (
          if Hashtbl.mem visiting s.id then
            invalid_arg "Rtl.eval_comb: combinational cycle through wire";
          Hashtbl.replace visiting s.id ();
          match cell.driver with
          | None -> invalid_arg "Rtl.eval_comb: unassigned wire"
          | Some d ->
            let v = go d in
            Hashtbl.remove visiting s.id;
            v)
      in
      Hashtbl.replace memo s.id v;
      v
  in
  go root

(* ------------------------------------------------------------------ *)
(* Synthesis                                                            *)

module B = Netlist.Builder

type lowerer = {
  nb : B.t;
  cse : (int * int * int * int, int) Hashtbl.t;  (* opcode, fanins -> gate *)
  consts : (Bit.t, int) Hashtbl.t;
  memo : (int, int array) Hashtbl.t;  (* signal id -> gate ids *)
  mutable pending_regs : (regspec * int array * string) list;
  wires_busy : (int, unit) Hashtbl.t;
}

let opcode_of_op = function
  | Gate.Buf -> 2
  | Gate.Not -> 3
  | Gate.And -> 4
  | Gate.Or -> 5
  | Gate.Nand -> 6
  | Gate.Nor -> 7
  | Gate.Xor -> 8
  | Gate.Xnor -> 9
  | Gate.Mux -> 10
  | Gate.Const _ | Gate.Input | Gate.Dff _ -> invalid_arg "opcode_of_op"

let const_gate l v =
  match Hashtbl.find_opt l.consts v with
  | Some id -> id
  | None ->
    let id = B.add_op l.nb (Gate.Const v) [||] in
    Hashtbl.replace l.consts v id;
    id

let const_value l id =
  match (B.gate l.nb id).Gate.op with Gate.Const v -> Some v | _ -> None

(* Create a gate with peephole simplification + structural hashing. *)
let rec emit l scope op (fanin : int array) : int =
  let c i = const_value l fanin.(i) in
  let simplified =
    match op, Array.length fanin with
    | Gate.Buf, _ -> Some fanin.(0)
    | Gate.Not, _ -> (
      match c 0 with
      | Some v -> Some (const_gate l (Bit.lnot v))
      | None -> (
        match (B.gate l.nb fanin.(0)).Gate.op with
        | Gate.Not -> Some (B.gate l.nb fanin.(0)).Gate.fanin.(0)
        | _ -> None))
    | Gate.And, _ -> (
      match c 0, c 1 with
      | Some Bit.Zero, _ | _, Some Bit.Zero -> Some (const_gate l Bit.Zero)
      | Some Bit.One, _ -> Some fanin.(1)
      | _, Some Bit.One -> Some fanin.(0)
      | Some Bit.X, Some Bit.X -> Some (const_gate l Bit.X)
      | _ -> if fanin.(0) = fanin.(1) then Some fanin.(0) else None)
    | Gate.Or, _ -> (
      match c 0, c 1 with
      | Some Bit.One, _ | _, Some Bit.One -> Some (const_gate l Bit.One)
      | Some Bit.Zero, _ -> Some fanin.(1)
      | _, Some Bit.Zero -> Some fanin.(0)
      | Some Bit.X, Some Bit.X -> Some (const_gate l Bit.X)
      | _ -> if fanin.(0) = fanin.(1) then Some fanin.(0) else None)
    | Gate.Xor, _ -> (
      match c 0, c 1 with
      | Some Bit.Zero, _ -> Some fanin.(1)
      | _, Some Bit.Zero -> Some fanin.(0)
      | Some Bit.One, _ -> Some (emit l scope Gate.Not [| fanin.(1) |])
      | _, Some Bit.One -> Some (emit l scope Gate.Not [| fanin.(0) |])
      | Some Bit.X, _ | _, Some Bit.X -> Some (const_gate l Bit.X)
      | _ ->
        if fanin.(0) = fanin.(1) then Some (const_gate l Bit.Zero) else None)
    | Gate.Xnor, _ -> (
      match c 0, c 1 with
      | Some Bit.One, _ -> Some fanin.(1)
      | _, Some Bit.One -> Some fanin.(0)
      | Some Bit.Zero, _ -> Some (emit l scope Gate.Not [| fanin.(1) |])
      | _, Some Bit.Zero -> Some (emit l scope Gate.Not [| fanin.(0) |])
      | Some Bit.X, _ | _, Some Bit.X -> Some (const_gate l Bit.X)
      | _ ->
        if fanin.(0) = fanin.(1) then Some (const_gate l Bit.One) else None)
    | Gate.Mux, _ -> (
      (* fanin = [sel; f; t] *)
      match c 0 with
      | Some Bit.Zero -> Some fanin.(1)
      | Some Bit.One -> Some fanin.(2)
      | _ ->
        if fanin.(1) = fanin.(2) then Some fanin.(1)
        else
          match c 1, c 2 with
          | Some Bit.Zero, Some Bit.One -> Some fanin.(0)
          | Some Bit.One, Some Bit.Zero ->
            Some (emit l scope Gate.Not [| fanin.(0) |])
          | _ -> None)
    | (Gate.Nand | Gate.Nor), _ -> None
    | (Gate.Const _ | Gate.Input | Gate.Dff _), _ -> invalid_arg "emit"
  in
  match simplified with
  | Some id -> id
  | None ->
    let all_const =
      Array.for_all (fun f -> const_value l f <> None) fanin
    in
    if all_const then
      let vals = Array.map (fun f -> Option.get (const_value l f)) fanin in
      const_gate l (Gate.eval op vals)
    else
      let key =
        ( opcode_of_op op,
          fanin.(0),
          (if Array.length fanin > 1 then fanin.(1) else -1),
          if Array.length fanin > 2 then fanin.(2) else -1 )
      in
      (match Hashtbl.find_opt l.cse key with
      | Some id -> id
      | None ->
        let id = B.add_op l.nb ~module_path:scope op fanin in
        Hashtbl.replace l.cse key id;
        id)

let rec lower l (s : signal) : int array =
  match Hashtbl.find_opt l.memo s.id with
  | Some ids -> ids
  | None ->
    let ids =
      match s.node with
      | Input _ ->
        Array.init s.w (fun _ ->
            B.add_op l.nb ~module_path:s.scope Gate.Input [||])
      | Const bits -> Array.map (fun v -> const_gate l v) bits
      | Not a ->
        let av = lower l a in
        Array.map (fun g -> emit l s.scope Gate.Not [| g |]) av
      | Op2 (op, a, b) ->
        let gop =
          match op with
          | Band -> Gate.And
          | Bor -> Gate.Or
          | Bxor -> Gate.Xor
          | Bxnor -> Gate.Xnor
        in
        let av = lower l a and bv = lower l b in
        Array.init s.w (fun i -> emit l s.scope gop [| av.(i); bv.(i) |])
      | Mux2 (sel, f, t) ->
        let sv = (lower l sel).(0) in
        let fv = lower l f and tv = lower l t in
        Array.init s.w (fun i -> emit l s.scope Gate.Mux [| sv; fv.(i); tv.(i) |])
      | Concat parts ->
        Array.concat (List.map (lower l) parts)
      | Select (a, hi, lo) ->
        let av = lower l a in
        Array.sub av lo (hi - lo + 1)
      | Adder (a, b, cin) ->
        let av = lower l a and bv = lower l b in
        let cv = (lower l cin).(0) in
        let out = Array.make s.w 0 in
        let carry = ref cv in
        for i = 0 to a.w - 1 do
          let x = av.(i) and y = bv.(i) and cgate = !carry in
          let axb = emit l s.scope Gate.Xor [| x; y |] in
          out.(i) <- emit l s.scope Gate.Xor [| axb; cgate |];
          let t1 = emit l s.scope Gate.And [| x; y |] in
          let t2 = emit l s.scope Gate.And [| cgate; axb |] in
          carry := emit l s.scope Gate.Or [| t1; t2 |]
        done;
        out.(a.w) <- !carry;
        out
      | Reg spec ->
        let init_bit i = Bit.of_bool ((spec.init lsr i) land 1 = 1) in
        let q =
          Array.init s.w (fun i ->
              B.add_op l.nb ~module_path:s.scope (Gate.Dff (init_bit i)) [| 0 |])
        in
        Hashtbl.replace l.memo s.id q;
        l.pending_regs <- (spec, q, s.scope) :: l.pending_regs;
        q
      | Wire cell -> (
        if Hashtbl.mem l.wires_busy s.id then
          failwith "Rtl.synthesize: combinational cycle through wire";
        Hashtbl.replace l.wires_busy s.id ();
        match cell.driver with
        | None -> failwith "Rtl.synthesize: unassigned wire"
        | Some d ->
          let v = lower l d in
          Hashtbl.remove l.wires_busy s.id;
          v)
    in
    (* Regs insert their own memo entry before lowering d. *)
    if not (Hashtbl.mem l.memo s.id) then Hashtbl.replace l.memo s.id ids;
    ids

let patch_reg l (spec, q, scope) =
  let dv = lower l spec.d in
  let with_enable =
    match spec.enable with
    | None -> dv
    | Some en ->
      let eg = (lower l en).(0) in
      Array.mapi (fun i d -> emit l scope Gate.Mux [| eg; q.(i); d |]) dv
  in
  let next =
    match spec.clear with
    | None -> with_enable
    | Some clr ->
      let cg = (lower l clr).(0) in
      Array.mapi
        (fun i d ->
          let cv = const_gate l (Bit.of_bool ((spec.clear_to lsr i) land 1 = 1)) in
          emit l scope Gate.Mux [| cg; d; cv |])
        with_enable
  in
  Array.iteri
    (fun i dff_id ->
      let g = B.gate l.nb dff_id in
      B.set l.nb dff_id { g with Gate.fanin = [| next.(i) |] })
    q

let synthesize b =
  let l =
    {
      nb = B.create ();
      cse = Hashtbl.create 4096;
      consts = Hashtbl.create 3;
      memo = Hashtbl.create 4096;
      pending_regs = [];
      wires_busy = Hashtbl.create 16;
    }
  in
  (* Lower inputs first so port gate order is stable. *)
  let in_ports = List.rev b.inputs |> List.map (fun (n, s) -> (n, lower l s)) in
  let out_ports =
    List.rev b.outputs |> List.map (fun (n, s) -> (n, lower l s))
  in
  let named = List.rev b.named |> List.map (fun (n, s) -> (n, lower l s)) in
  (* Resolve register next-state functions (may discover more logic and
     more registers). *)
  let rec drain () =
    match l.pending_regs with
    | [] -> ()
    | batch ->
      l.pending_regs <- [];
      List.iter (patch_reg l) (List.rev batch);
      drain ()
  in
  drain ();
  List.iter (fun (n, ids) -> B.set_input_port l.nb n ids) in_ports;
  List.iter (fun (n, ids) -> B.set_output_port l.nb n ids) out_ports;
  List.iter (fun (n, ids) -> B.set_name l.nb n ids) named;
  let net = B.finish l.nb in
  (* Fanout-based drive selection: heavily loaded gates get the X2 cell
     (roughly what a timing-driven synthesis run would do). *)
  let fanout = Netlist.fanout net in
  let net =
    Netlist.map_gates net (fun id g ->
        if Array.length fanout.(id) >= 5 && not (Gate.is_source g) then
          { g with Gate.drive = 1 }
        else g)
  in
  ignore (Netlist.levelize net);
  net
