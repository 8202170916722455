type t = Zero | One | X

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | (Zero | One | X), _ -> false

let compare a b =
  let rank = function Zero -> 0 | One -> 1 | X -> 2 in
  Int.compare (rank a) (rank b)

let to_char = function Zero -> '0' | One -> '1' | X -> 'x'

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | 'x' | 'X' -> X
  | c -> invalid_arg (Printf.sprintf "Bit.of_char: %c" c)

let pp fmt b = Format.pp_print_char fmt (to_char b)
let of_bool b = if b then One else Zero

let to_bool_exn = function
  | Zero -> false
  | One -> true
  | X -> invalid_arg "Bit.to_bool_exn: X"

let is_known = function Zero | One -> true | X -> false
let to_int = function Zero -> 0 | One -> 1 | X -> 2

let of_int_exn = function
  | 0 -> Zero
  | 1 -> One
  | 2 -> X
  | n -> invalid_arg (Printf.sprintf "Bit.of_int_exn: %d" n)

let code_x = 2

let lnot = function Zero -> One | One -> Zero | X -> X

let land_ a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | (One | X), (One | X) -> X

let lor_ a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | (Zero | X), (Zero | X) -> X

let lxor_ a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | (Zero | One), (Zero | One) -> One

let lnand a b = lnot (land_ a b)
let lnor a b = lnot (lor_ a b)
let lxnor a b = lnot (lxor_ a b)
let merge a b = if equal a b then a else X

let mux sel a b =
  match sel with
  | Zero -> a
  | One -> b
  | X -> merge a b

let subsumes general specific =
  match general, specific with
  | X, _ -> true
  | (Zero | One), _ -> equal general specific

let concretizations = function
  | Zero -> [ Zero ]
  | One -> [ One ]
  | X -> [ Zero; One ]
