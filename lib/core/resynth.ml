module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module B = Netlist.Builder
module Obs = Bespoke_obs.Obs

(* Resynthesis telemetry (no-ops unless Obs is enabled): gates folded
   away per rewrite (peephole simplifications + constant evaluation)
   and fixpoint rounds run. *)
let m_const_folds = Obs.Metrics.counter "resynth.const_folds"
let m_rounds = Obs.Metrics.counter "resynth.rounds"

(* Rebuild the netlist gate by gate in topological order, folding
   constants, simplifying, and structurally hashing.  A DFF whose D is
   itself or a tie equal to its reset value becomes a tie cell. *)
let rewrite_traced net =
  let ng = Netlist.gate_count net in
  let b = B.create () in
  let map = Array.make ng (-1) in
  let consts : (Bit.t, int) Hashtbl.t = Hashtbl.create 3 in
  let cse : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let folds = ref 0 in
  let tie v =
    match Hashtbl.find_opt consts v with
    | Some id -> id
    | None ->
      let id = B.add_op b (Gate.Const v) [||] in
      Hashtbl.replace consts v id;
      id
  in
  let const_of_new id =
    match (B.gate b id).Gate.op with Gate.Const v -> Some v | _ -> None
  in
  let opcode = function
    | Gate.Buf -> 2
    | Gate.Not -> 3
    | Gate.And -> 4
    | Gate.Or -> 5
    | Gate.Nand -> 6
    | Gate.Nor -> 7
    | Gate.Xor -> 8
    | Gate.Xnor -> 9
    | Gate.Mux -> 10
    | Gate.Const _ | Gate.Input | Gate.Dff _ -> invalid_arg "opcode"
  in
  (* emit with peephole simplification + CSE over NEW gate ids *)
  let rec emit scope drive op (fanin : int array) : int =
    let c i = const_of_new fanin.(i) in
    let simplified =
      match op with
      | Gate.Buf -> Some fanin.(0)
      | Gate.Not -> (
        match c 0 with
        | Some v -> Some (tie (Bit.lnot v))
        | None -> (
          match (B.gate b fanin.(0)).Gate.op with
          | Gate.Not -> Some (B.gate b fanin.(0)).Gate.fanin.(0)
          | _ -> None))
      | Gate.And -> (
        match c 0, c 1 with
        | Some Bit.Zero, _ | _, Some Bit.Zero -> Some (tie Bit.Zero)
        | Some Bit.One, _ -> Some fanin.(1)
        | _, Some Bit.One -> Some fanin.(0)
        | Some Bit.X, Some Bit.X -> Some (tie Bit.X)
        | _ -> if fanin.(0) = fanin.(1) then Some fanin.(0) else None)
      | Gate.Or -> (
        match c 0, c 1 with
        | Some Bit.One, _ | _, Some Bit.One -> Some (tie Bit.One)
        | Some Bit.Zero, _ -> Some fanin.(1)
        | _, Some Bit.Zero -> Some fanin.(0)
        | Some Bit.X, Some Bit.X -> Some (tie Bit.X)
        | _ -> if fanin.(0) = fanin.(1) then Some fanin.(0) else None)
      | Gate.Xor -> (
        match c 0, c 1 with
        | Some Bit.Zero, _ -> Some fanin.(1)
        | _, Some Bit.Zero -> Some fanin.(0)
        | Some Bit.One, _ -> Some (emit scope drive Gate.Not [| fanin.(1) |])
        | _, Some Bit.One -> Some (emit scope drive Gate.Not [| fanin.(0) |])
        | Some Bit.X, _ | _, Some Bit.X -> Some (tie Bit.X)
        | _ -> if fanin.(0) = fanin.(1) then Some (tie Bit.Zero) else None)
      | Gate.Xnor -> (
        match c 0, c 1 with
        | Some Bit.One, _ -> Some fanin.(1)
        | _, Some Bit.One -> Some fanin.(0)
        | Some Bit.Zero, _ -> Some (emit scope drive Gate.Not [| fanin.(1) |])
        | _, Some Bit.Zero -> Some (emit scope drive Gate.Not [| fanin.(0) |])
        | Some Bit.X, _ | _, Some Bit.X -> Some (tie Bit.X)
        | _ -> if fanin.(0) = fanin.(1) then Some (tie Bit.One) else None)
      | Gate.Nand -> (
        match c 0, c 1 with
        | Some Bit.Zero, _ | _, Some Bit.Zero -> Some (tie Bit.One)
        | Some Bit.One, _ -> Some (emit scope drive Gate.Not [| fanin.(1) |])
        | _, Some Bit.One -> Some (emit scope drive Gate.Not [| fanin.(0) |])
        | _ -> None)
      | Gate.Nor -> (
        match c 0, c 1 with
        | Some Bit.One, _ | _, Some Bit.One -> Some (tie Bit.Zero)
        | Some Bit.Zero, _ -> Some (emit scope drive Gate.Not [| fanin.(1) |])
        | _, Some Bit.Zero -> Some (emit scope drive Gate.Not [| fanin.(0) |])
        | _ -> None)
      | Gate.Mux -> (
        match c 0 with
        | Some Bit.Zero -> Some fanin.(1)
        | Some Bit.One -> Some fanin.(2)
        | _ -> (
          if fanin.(1) = fanin.(2) then Some fanin.(1)
          else
            match c 1, c 2 with
            | Some Bit.Zero, Some Bit.One -> Some fanin.(0)
            | Some Bit.One, Some Bit.Zero ->
              Some (emit scope drive Gate.Not [| fanin.(0) |])
            | _ -> None))
      | Gate.Const _ | Gate.Input | Gate.Dff _ -> invalid_arg "emit"
    in
    match simplified with
    | Some id ->
      incr folds;
      id
    | None ->
      if Array.for_all (fun f -> const_of_new f <> None) fanin then begin
        incr folds;
        tie (Gate.eval op (Array.map (fun f -> Option.get (const_of_new f)) fanin))
      end
      else
        let key =
          ( opcode op,
            fanin.(0),
            (if Array.length fanin > 1 then fanin.(1) else -1),
            if Array.length fanin > 2 then fanin.(2) else -1 )
        in
        (match Hashtbl.find_opt cse key with
        | Some id -> id
        | None ->
          let id = B.add b { Gate.op; fanin; module_path = scope; drive } in
          Hashtbl.replace cse key id;
          id)
  in
  (* 1. sources: inputs, consts, and surviving DFFs (fanin patched in
     step 3) *)
  let pending_dffs = ref [] in
  Array.iteri
    (fun id (g : Gate.t) ->
      match g.Gate.op with
      | Gate.Input -> map.(id) <- B.add b g
      | Gate.Const v -> map.(id) <- tie v
      | Gate.Dff init ->
        let d = g.Gate.fanin.(0) in
        let stuck =
          d = id
          ||
          match net.Netlist.gates.(d).Gate.op with
          | Gate.Const v -> Bit.equal v init
          | _ -> false
        in
        if stuck then map.(id) <- tie init
        else begin
          map.(id) <- B.add b g;
          pending_dffs := (id, map.(id)) :: !pending_dffs
        end
      | _ -> ())
    net.Netlist.gates;
  (* 2. combinational gates in topological order *)
  Array.iter
    (fun id ->
      let g = net.Netlist.gates.(id) in
      let fanin = Array.map (fun f -> map.(f)) g.Gate.fanin in
      map.(id) <- emit g.Gate.module_path g.Gate.drive g.Gate.op fanin)
    (Netlist.levelize net);
  (* 3. patch DFF D pins *)
  List.iter
    (fun (old_id, new_id) ->
      let g = net.Netlist.gates.(old_id) in
      let g' = B.gate b new_id in
      B.set b new_id { g' with Gate.fanin = [| map.(g.Gate.fanin.(0)) |] })
    !pending_dffs;
  (* 4. ports and names *)
  List.iter
    (fun (n, ids) -> B.set_input_port b n (Array.map (fun i -> map.(i)) ids))
    net.Netlist.input_ports;
  List.iter
    (fun (n, ids) -> B.set_output_port b n (Array.map (fun i -> map.(i)) ids))
    net.Netlist.output_ports;
  List.iter
    (fun (n, ids) -> B.set_name b n (Array.map (fun i -> map.(i)) ids))
    net.Netlist.names;
  Obs.Metrics.add m_const_folds !folds;
  (B.finish b, map)

let dead_sweep net =
  let keep = Netlist.live_gates net in
  (* keep tie cells referenced by names so analysis hooks stay
     resolvable; compact re-materializes dropped const references *)
  Netlist.compact net ~keep

(* [m2] after [m1]; a gate dropped at either stage stays dropped. *)
let compose m1 m2 =
  Array.map (fun i -> if i < 0 then -1 else m2.(i)) m1

let pass_traced net =
  let net1, m1 = rewrite_traced net in
  let net2, m2 = dead_sweep net1 in
  (net2, compose m1 m2)

(* Rounds before [optimize] stops even if the gate count still falls. *)
let max_rounds = 8

let optimize_traced net =
  Obs.Span.with_ ~name:"resynth.optimize" (fun () ->
      let rec go round net map =
        if round >= max_rounds then (net, map)
        else begin
          Obs.Metrics.incr m_rounds;
          let net', m' = pass_traced net in
          let map' = compose map m' in
          if Netlist.gate_count net' < Netlist.gate_count net then
            go (round + 1) net' map'
          else (net', map')
        end
      in
      go 0 net (Array.init (Netlist.gate_count net) Fun.id))

let optimize net = fst (optimize_traced net)
