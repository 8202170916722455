module Bit = Bespoke_logic.Bit

type t = {
  gates : Gate.t array;
  input_ports : (string * int array) list;
  output_ports : (string * int array) list;
  names : (string * int array) list;
}

let gate_count n = Array.length n.gates

let num_gates n =
  let count = ref 0 in
  Array.iter
    (fun (g : Gate.t) ->
      match g.op with Gate.Input | Gate.Const _ -> () | _ -> incr count)
    n.gates;
  !count

let num_dffs n =
  let count = ref 0 in
  Array.iter (fun g -> if Gate.is_sequential g then incr count) n.gates;
  !count

let assoc_exn what name l =
  match List.assoc_opt name l with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Netlist: no %s named %S" what name)

let find_input n name = assoc_exn "input port" name n.input_ports
let find_output n name = assoc_exn "output port" name n.output_ports

let find_name n name =
  match List.assoc_opt name n.names with
  | Some v -> v
  | None -> (
    match List.assoc_opt name n.output_ports with
    | Some v -> v
    | None -> (
      match List.assoc_opt name n.input_ports with
      | Some v -> v
      | None -> raise Not_found))

let mem_name n name =
  List.mem_assoc name n.names
  || List.mem_assoc name n.output_ports
  || List.mem_assoc name n.input_ports

let validate n =
  let ng = Array.length n.gates in
  Array.iteri
    (fun id (g : Gate.t) ->
      let want = Gate.arity g.op in
      if Array.length g.fanin <> want then
        failwith
          (Printf.sprintf "Netlist.validate: gate %d (%s) has %d fanins, wants %d"
             id (Gate.op_name g.op) (Array.length g.fanin) want);
      Array.iter
        (fun f ->
          if f < 0 || f >= ng then
            failwith
              (Printf.sprintf
                 "Netlist.validate: gate %d (%s) references out-of-range id %d"
                 id (Gate.op_name g.op) f))
        g.fanin)
    n.gates;
  let check_port kind (name, ids) =
    Array.iter
      (fun id ->
        if id < 0 || id >= ng then
          failwith
            (Printf.sprintf "Netlist.validate: %s port %S references id %d" kind
               name id))
      ids
  in
  List.iter
    (fun (name, ids) ->
      check_port "input" (name, ids);
      Array.iter
        (fun id ->
          match n.gates.(id).op with
          | Gate.Input -> ()
          | op ->
            failwith
              (Printf.sprintf
                 "Netlist.validate: input port %S bit is a %s, not an Input"
                 name (Gate.op_name op)))
        ids)
    n.input_ports;
  List.iter (check_port "output") n.output_ports;
  List.iter (check_port "named") n.names

(* Depth-first post-order over combinational fanins, roots visited in
   ascending id.  On a forward netlist no visit nests, so the order is
   the ascending ids (the contract in the interface); elsewhere the
   recursion is as deep as the longest combinational path. *)
let levelize n =
  let ng = Array.length n.gates in
  (* per gate: 0 unvisited, 1 on the current DFS path, 2 emitted *)
  let mark = Bytes.make ng '\000' in
  let order = Array.make ng 0 in
  let count = ref 0 in
  let rec visit id =
    let g = n.gates.(id) in
    if not (Gate.is_source g) then
      match Bytes.get mark id with
      | '\002' -> ()
      | '\001' ->
        failwith
          (Printf.sprintf
             "Netlist.levelize: combinational cycle (gate %d, %s, module %s)"
             id (Gate.op_name g.op) g.module_path)
      | _ ->
        Bytes.set mark id '\001';
        Array.iter visit g.fanin;
        Bytes.set mark id '\002';
        order.(!count) <- id;
        incr count
  in
  for id = 0 to ng - 1 do
    visit id
  done;
  Array.sub order 0 !count

let levels n =
  let order = levelize n in
  let lvl = Array.make (Array.length n.gates) 0 in
  Array.iter
    (fun id ->
      let g = n.gates.(id) in
      let m = ref 0 in
      Array.iter
        (fun f ->
          let fl = lvl.(f) in
          if fl >= !m then m := fl)
        g.fanin;
      lvl.(id) <- !m + 1)
    order;
  lvl

let fanout n =
  let ng = Array.length n.gates in
  let counts = Array.make ng 0 in
  Array.iter
    (fun (g : Gate.t) ->
      Array.iter (fun f -> counts.(f) <- counts.(f) + 1) g.fanin)
    n.gates;
  let out = Array.init ng (fun i -> Array.make counts.(i) 0) in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun id (g : Gate.t) ->
      Array.iter
        (fun f ->
          out.(f).(fill.(f)) <- id;
          fill.(f) <- fill.(f) + 1)
        g.fanin)
    n.gates;
  out

let output_ids n =
  List.concat_map (fun (_, ids) -> Array.to_list ids) n.output_ports

let live_gates n =
  let ng = Array.length n.gates in
  let live = Array.make ng false in
  let stack = Stack.create () in
  let mark id =
    if not live.(id) then begin
      live.(id) <- true;
      Stack.push id stack
    end
  in
  List.iter mark (output_ids n);
  while not (Stack.is_empty stack) do
    let id = Stack.pop stack in
    Array.iter mark n.gates.(id).fanin
  done;
  live

let module_of n id =
  let p = n.gates.(id).module_path in
  match String.index_opt p '/' with
  | None -> p
  | Some i -> String.sub p 0 i

let modules n =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun id _ -> Hashtbl.replace tbl (module_of n id) ()) n.gates;
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let names_of n id =
  let acc = ref [] in
  let scan (name, ids) =
    Array.iteri
      (fun i g ->
        if g = id then
          acc :=
            (if Array.length ids = 1 then name
             else Printf.sprintf "%s[%d]" name i)
            :: !acc)
      ids
  in
  List.iter scan n.names;
  List.iter scan n.output_ports;
  List.iter scan n.input_ports;
  List.sort_uniq String.compare !acc

let find_bits n ref_str =
  let len = String.length ref_str in
  let base, idx =
    if len > 1 && ref_str.[len - 1] = ']' then
      match String.index_opt ref_str '[' with
      | Some i -> (
        match int_of_string_opt (String.sub ref_str (i + 1) (len - i - 2)) with
        | Some bit -> (String.sub ref_str 0 i, Some bit)
        | None -> (ref_str, None))
      | None -> (ref_str, None)
    else (ref_str, None)
  in
  let ids = find_name n base in
  match idx with
  | None -> ids
  | Some bit ->
    if bit < 0 || bit >= Array.length ids then raise Not_found
    else [| ids.(bit) |]

module Builder = struct
  type t = {
    mutable arr : Gate.t array;
    mutable len : int;
    mutable inputs : (string * int array) list;
    mutable outputs : (string * int array) list;
    mutable named : (string * int array) list;
  }

  let dummy : Gate.t =
    { op = Gate.Const Bit.Zero; fanin = [||]; module_path = ""; drive = 0 }

  let create () =
    { arr = Array.make 1024 dummy; len = 0; inputs = []; outputs = []; named = [] }

  let add b g =
    if b.len = Array.length b.arr then begin
      let bigger = Array.make (2 * b.len) dummy in
      Array.blit b.arr 0 bigger 0 b.len;
      b.arr <- bigger
    end;
    b.arr.(b.len) <- g;
    b.len <- b.len + 1;
    b.len - 1

  let add_op b ?(module_path = "") ?(drive = 0) op fanin =
    add b { op; fanin; module_path; drive }

  let gate b id =
    if id < 0 || id >= b.len then invalid_arg "Builder.gate: bad id";
    b.arr.(id)

  let set b id g =
    if id < 0 || id >= b.len then invalid_arg "Builder.set: bad id";
    b.arr.(id) <- g

  let size b = b.len
  let set_input_port b name ids = b.inputs <- b.inputs @ [ (name, ids) ]
  let set_output_port b name ids = b.outputs <- b.outputs @ [ (name, ids) ]
  let set_name b name ids = b.named <- b.named @ [ (name, ids) ]

  let finish b =
    let n =
      {
        gates = Array.sub b.arr 0 b.len;
        input_ports = b.inputs;
        output_ports = b.outputs;
        names = b.named;
      }
    in
    validate n;
    n
end

let map_gates n f =
  let n' = { n with gates = Array.mapi f n.gates } in
  validate n';
  n'

let compact n ~keep =
  let ng = Array.length n.gates in
  let keep = Array.copy keep in
  (* Input-port gates always survive so port shapes are stable. *)
  List.iter
    (fun (_, ids) -> Array.iter (fun id -> keep.(id) <- true) ids)
    n.input_ports;
  let remap = Array.make ng (-1) in
  let b = Builder.create () in
  (* Shared tie cells, created on demand. *)
  let ties = Hashtbl.create 3 in
  let tie v =
    match Hashtbl.find_opt ties v with
    | Some id -> id
    | None ->
      let id = Builder.add_op b ~module_path:"" (Gate.Const v) [||] in
      Hashtbl.replace ties v id;
      id
  in
  Array.iteri
    (fun id (g : Gate.t) -> if keep.(id) then remap.(id) <- Builder.add b g)
    n.gates;
  (* Rewrite fanins of kept gates. *)
  let resolve ~context old =
    if remap.(old) >= 0 then remap.(old)
    else
      match n.gates.(old).op with
      | Gate.Const v -> tie v
      | op ->
        failwith
          (Printf.sprintf
             "Netlist.compact: %s references dropped non-const gate %d (%s)"
             context old (Gate.op_name op))
  in
  Array.iteri
    (fun id (g : Gate.t) ->
      if keep.(id) then begin
        let g' =
          {
            g with
            Gate.fanin =
              Array.map
                (resolve ~context:(Printf.sprintf "gate %d" id))
                g.fanin;
          }
        in
        Builder.set b remap.(id) g'
      end)
    n.gates;
  let remap_port kind (name, ids) =
    ( name,
      Array.map (resolve ~context:(Printf.sprintf "%s port %S" kind name)) ids )
  in
  List.iter
    (fun p -> Builder.set_input_port b (fst p) (snd (remap_port "input" p)))
    n.input_ports;
  List.iter
    (fun p -> Builder.set_output_port b (fst p) (snd (remap_port "output" p)))
    n.output_ports;
  (* Names are observation metadata, not design structure: a hook bit
     whose driver was swept away is remapped to an X tie cell rather
     than failing the compaction. *)
  List.iter
    (fun (name, ids) ->
      let ids' =
        Array.map
          (fun old ->
            if remap.(old) >= 0 then remap.(old)
            else
              match n.gates.(old).Gate.op with
              | Gate.Const v -> tie v
              | _ -> tie Bit.X)
          ids
      in
      Builder.set_name b name ids')
    n.names;
  (Builder.finish b, remap)

let pp_summary fmt n =
  Format.fprintf fmt "netlist: %d gates (%d real, %d DFFs), %d in-ports, %d out-ports"
    (gate_count n) (num_gates n) (num_dffs n)
    (List.length n.input_ports)
    (List.length n.output_ports)
