module Bit = Bespoke_logic.Bit

type op =
  | Const of Bit.t
  | Input
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux
  | Dff of Bit.t

type t = { op : op; fanin : int array; module_path : string; drive : int }

let arity = function
  | Const _ | Input -> 0
  | Buf | Not | Dff _ -> 1
  | And | Or | Nand | Nor | Xor | Xnor -> 2
  | Mux -> 3

let is_sequential g = match g.op with Dff _ -> true | _ -> false

let is_source g =
  match g.op with Const _ | Input | Dff _ -> true | _ -> false

let op_equal a b =
  match a, b with
  | Const x, Const y -> Bit.equal x y
  | Dff x, Dff y -> Bit.equal x y
  | Input, Input
  | Buf, Buf
  | Not, Not
  | And, And
  | Or, Or
  | Nand, Nand
  | Nor, Nor
  | Xor, Xor
  | Xnor, Xnor
  | Mux, Mux -> true
  | ( ( Const _ | Input | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | Mux
      | Dff _ ),
      _ ) -> false

let op_name = function
  | Const b -> Printf.sprintf "const%c" (Bit.to_char b)
  | Input -> "input"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Mux -> "mux"
  | Dff _ -> "dff"

let eval op (ins : Bit.t array) =
  match op with
  | Const b -> b
  | Input -> invalid_arg "Gate.eval: Input has no combinational function"
  | Buf -> ins.(0)
  | Not -> Bit.lnot ins.(0)
  | And -> Bit.land_ ins.(0) ins.(1)
  | Or -> Bit.lor_ ins.(0) ins.(1)
  | Nand -> Bit.lnand ins.(0) ins.(1)
  | Nor -> Bit.lnor ins.(0) ins.(1)
  | Xor -> Bit.lxor_ ins.(0) ins.(1)
  | Xnor -> Bit.lxnor ins.(0) ins.(1)
  | Mux -> Bit.mux ins.(0) ins.(1) ins.(2)
  | Dff _ -> ins.(0)
