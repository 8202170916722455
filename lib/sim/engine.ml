module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist

type source = Compile.source = Net of int | Tie of Bit.t

type check = Compile.check = {
  c_op : Gate.op;
  c_fanin : source array;
  c_assumed : Bit.t;
}

module type S = sig
  type t

  val netlist : t -> Netlist.t
  val reset : t -> unit
  val eval : t -> unit
  val step : t -> unit
  val commit_cycle : t -> unit
  val value_code : t -> int -> int
  val set_gate : t -> int -> Bit.t -> unit
  val set_gates_int : t -> int array -> int -> unit
  val read_int_ids : t -> int array -> int option
  val rails_reader : t -> int array -> int array -> unit
  val toggle_counts : t -> int array
  val possibly_toggled : t -> bool array
  val set_first_possibly_hook : t -> (int -> unit) option -> unit
  val set_cycle_hook : t -> (int -> unit) option -> unit
  val dff_ids : t -> int array
  val dff_rails : t -> int array
  val restore_dff_rails : t -> int array -> unit
  val dff_slot : t -> int -> int
  val sync_prev : t -> unit
  val checks : t -> check array -> unit -> bool
end

type t = E : (module S with type t = 'a) * 'a -> t

let make m x = E (m, x)
let create net = E ((module Compile), Compile.create net)

(* ---------- primitives ---------- *)

let netlist (E ((module M), x)) = M.netlist x
let reset (E ((module M), x)) = M.reset x
let eval (E ((module M), x)) = M.eval x
let step (E ((module M), x)) = M.step x
let commit_cycle (E ((module M), x)) = M.commit_cycle x
let value_code (E ((module M), x)) id = M.value_code x id
let set_gate (E ((module M), x)) id b = M.set_gate x id b
let set_gates_int (E ((module M), x)) ids v = M.set_gates_int x ids v
let read_int_ids (E ((module M), x)) ids = M.read_int_ids x ids
let rails_reader (E ((module M), x)) ids = M.rails_reader x ids
let toggle_counts (E ((module M), x)) = M.toggle_counts x
let possibly_toggled (E ((module M), x)) = M.possibly_toggled x
let set_first_possibly_hook (E ((module M), x)) f = M.set_first_possibly_hook x f
let set_cycle_hook (E ((module M), x)) f = M.set_cycle_hook x f
let dff_ids (E ((module M), x)) = M.dff_ids x
let dff_rails (E ((module M), x)) = M.dff_rails x
let restore_dff_rails (E ((module M), x)) r = M.restore_dff_rails x r
let dff_slot (E ((module M), x)) id = M.dff_slot x id
let sync_prev (E ((module M), x)) = M.sync_prev x
let checks (E ((module M), x)) cs = M.checks x cs

(* ---------- derived operations ---------- *)

let value t id = Bit.of_int_exn (value_code t id)
let read t name = Array.map (value t) (Netlist.find_name (netlist t) name)
let read_int t name = Bvec.to_int (read t name)

let set_input t name (v : Bvec.t) =
  let ids = Netlist.find_input (netlist t) name in
  if Array.length ids <> Bvec.width v then
    invalid_arg (Printf.sprintf "Engine.set_input %s: width mismatch" name);
  Array.iteri (fun i id -> set_gate t id v.(i)) ids

let set_input_int t name n =
  let w = Array.length (Netlist.find_input (netlist t) name) in
  set_input t name (Bvec.of_int ~width:w n)

let set_input_x t name =
  Array.iter (fun id -> set_gate t id Bit.X) (Netlist.find_input (netlist t) name)

let set_all_inputs_x t =
  List.iter (fun (name, _) -> set_input_x t name) (netlist t).Netlist.input_ports

let snapshot_values t = Array.init (Netlist.gate_count (netlist t)) (value t)

(* DFF rails: pair [k] is [r.(2k)] (can be 0) and [r.(2k+1)] (can be
   1); slot [k lsl 6 lor b] is bit [b] of pair [k]. *)
let slot_code r s =
  let k = 2 * (s lsr 6) and b = s land 63 in
  let lo = (r.(k) lsr b) land 1 and hi = (r.(k + 1) lsr b) land 1 in
  hi + (lo land hi)

let set_slot r s (b : Bit.t) =
  let k = 2 * (s lsr 6) and m = 1 lsl (s land 63) in
  let can0 = if Bit.equal b Bit.One then 0 else m
  and can1 = if Bit.equal b Bit.Zero then 0 else m in
  r.(k) <- r.(k) land lnot m lor can0;
  r.(k + 1) <- r.(k + 1) land lnot m lor can1

let rails_subsumes ~general ~specific =
  let rec go i =
    i < 0 || (specific.(i) land lnot general.(i) = 0 && go (i - 1))
  in
  Array.length general = Array.length specific
  && go (Array.length general - 1)

let rails_merge a b =
  if Array.length a <> Array.length b then
    invalid_arg "Engine.rails_merge: size mismatch";
  Array.map2 ( lor ) a b

let dff_state t =
  let r = dff_rails t in
  Array.map (fun id -> Bit.of_int_exn (slot_code r (dff_slot t id))) (dff_ids t)

let check_code t c =
  Bit.to_int
    (Gate.eval c.c_op
       (Array.map (function Net id -> value t id | Tie b -> b) c.c_fanin))

let convicts c code = code <> Bit.code_x && code <> Bit.to_int c.c_assumed
