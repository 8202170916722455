type reg = int

let pc = 0
let sp = 1
let sr = 2
let cg = 3

type size = Word | Byte

type two_op =
  | MOV
  | ADD
  | ADDC
  | SUBC
  | SUB
  | CMP
  | DADD
  | BIT
  | BIC
  | BIS
  | XOR
  | AND

type one_op = RRC | SWPB | RRA | SXT | PUSH | CALL | RETI
type cond = JNE | JEQ | JNC | JC | JN | JGE | JL | JMP

type src =
  | Sreg of reg
  | Sidx of reg * int
  | Sind of reg
  | Sinc of reg
  | Imm of int

type dst = Dreg of reg | Didx of reg * int

type t =
  | Two of { op : two_op; size : size; src : src; dst : dst }
  | One of { op : one_op; size : size; dst : src }
  | Jump of { cond : cond; off : int }

let two_op_code = function
  | MOV -> 0x4
  | ADD -> 0x5
  | ADDC -> 0x6
  | SUBC -> 0x7
  | SUB -> 0x8
  | CMP -> 0x9
  | DADD -> 0xA
  | BIT -> 0xB
  | BIC -> 0xC
  | BIS -> 0xD
  | XOR -> 0xE
  | AND -> 0xF

let two_op_of_code = function
  | 0x4 -> MOV
  | 0x5 -> ADD
  | 0x6 -> ADDC
  | 0x7 -> SUBC
  | 0x8 -> SUB
  | 0x9 -> CMP
  | 0xA -> DADD
  | 0xB -> BIT
  | 0xC -> BIC
  | 0xD -> BIS
  | 0xE -> XOR
  | 0xF -> AND
  | _ -> invalid_arg "two_op_of_code"

let one_op_code = function
  | RRC -> 0
  | SWPB -> 1
  | RRA -> 2
  | SXT -> 3
  | PUSH -> 4
  | CALL -> 5
  | RETI -> 6

let one_op_of_code = function
  | 0 -> RRC
  | 1 -> SWPB
  | 2 -> RRA
  | 3 -> SXT
  | 4 -> PUSH
  | 5 -> CALL
  | 6 -> RETI
  | _ -> invalid_arg "one_op_of_code"

let cond_code = function
  | JNE -> 0
  | JEQ -> 1
  | JNC -> 2
  | JC -> 3
  | JN -> 4
  | JGE -> 5
  | JL -> 6
  | JMP -> 7

let cond_of_code = function
  | 0 -> JNE
  | 1 -> JEQ
  | 2 -> JNC
  | 3 -> JC
  | 4 -> JN
  | 5 -> JGE
  | 6 -> JL
  | 7 -> JMP
  | _ -> invalid_arg "cond_of_code"

let two_op_name = function
  | MOV -> "mov"
  | ADD -> "add"
  | ADDC -> "addc"
  | SUBC -> "subc"
  | SUB -> "sub"
  | CMP -> "cmp"
  | DADD -> "dadd"
  | BIT -> "bit"
  | BIC -> "bic"
  | BIS -> "bis"
  | XOR -> "xor"
  | AND -> "and"

let one_op_name = function
  | RRC -> "rrc"
  | SWPB -> "swpb"
  | RRA -> "rra"
  | SXT -> "sxt"
  | PUSH -> "push"
  | CALL -> "call"
  | RETI -> "reti"

let cond_name = function
  | JNE -> "jne"
  | JEQ -> "jeq"
  | JNC -> "jnc"
  | JC -> "jc"
  | JN -> "jn"
  | JGE -> "jge"
  | JL -> "jl"
  | JMP -> "jmp"

let reg_name r =
  match r with
  | 0 -> "pc"
  | 1 -> "sp"
  | 2 -> "sr"
  | _ -> Printf.sprintf "r%d" r

let src_to_string = function
  | Sreg r -> reg_name r
  | Sidx (2, x) -> Printf.sprintf "&0x%04x" (x land 0xffff)
  | Sidx (r, x) -> Printf.sprintf "%d(%s)" x (reg_name r)
  | Sind r -> Printf.sprintf "@%s" (reg_name r)
  | Sinc r -> Printf.sprintf "@%s+" (reg_name r)
  | Imm n -> Printf.sprintf "#%d" n

let dst_to_string = function
  | Dreg r -> reg_name r
  | Didx (2, x) -> Printf.sprintf "&0x%04x" (x land 0xffff)
  | Didx (r, x) -> Printf.sprintf "%d(%s)" x (reg_name r)

let suffix = function Word -> "" | Byte -> ".b"

let to_string = function
  | Two { op; size; src; dst } ->
    Printf.sprintf "%s%s %s, %s" (two_op_name op) (suffix size)
      (src_to_string src) (dst_to_string dst)
  | One { op = RETI; _ } -> "reti"
  | One { op; size; dst } ->
    Printf.sprintf "%s%s %s" (one_op_name op) (suffix size) (src_to_string dst)
  | Jump { cond; off } -> Printf.sprintf "%s %+d" (cond_name cond) off

let pp fmt i = Format.pp_print_string fmt (to_string i)

exception Decode_error of string

(* As/source-register encoding, including the constant generators.
   Returns (as_bits, register, extension words). *)
let encode_src (src : src) =
  match src with
  | Sreg r -> (0, r, [])
  | Sidx (r, x) -> (1, r, [ x land 0xffff ])
  | Sind r -> (2, r, [])
  | Sinc r -> (3, r, [])
  | Imm 0 -> (0, cg, [])
  | Imm 1 -> (1, cg, [])  (* R3/As=01: constant 1, no ext word *)
  | Imm 2 -> (2, cg, [])
  | Imm n when n land 0xffff = 0xffff -> (3, cg, [])
  | Imm 4 -> (2, sr, [])
  | Imm 8 -> (3, sr, [])
  | Imm n -> (3, pc, [ n land 0xffff ])

let encode_dst (dst : dst) =
  match dst with
  | Dreg r -> (0, r, [])
  | Didx (r, x) -> (1, r, [ x land 0xffff ])

let encode = function
  | Two { op; size; src; dst } ->
    let as_bits, sreg, sext = encode_src src in
    let ad_bits, dreg, dext = encode_dst dst in
    let bw = match size with Word -> 0 | Byte -> 1 in
    let w =
      (two_op_code op lsl 12)
      lor (sreg lsl 8)
      lor (ad_bits lsl 7)
      lor (bw lsl 6)
      lor (as_bits lsl 4)
      lor dreg
    in
    w :: (sext @ dext)
  | One { op; size; dst } ->
    let as_bits, dreg, ext = encode_src dst in
    let bw = match size with Word -> 0 | Byte -> 1 in
    let w =
      0x1000
      lor (one_op_code op lsl 7)
      lor (bw lsl 6)
      lor (as_bits lsl 4)
      lor dreg
    in
    w :: ext
  | Jump { cond; off } ->
    if off < -512 || off > 511 then
      invalid_arg (Printf.sprintf "Isa.encode: jump offset %d out of range" off);
    [ 0x2000 lor (cond_code cond lsl 10) lor (off land 0x3ff) ]

(* Decode a source specifier.  Consumes an extension word when needed. *)
let decode_src ~as_bits ~reg ~rest =
  let take () =
    match rest with
    | w :: _ -> w
    | [] -> raise (Decode_error "missing extension word")
  in
  if reg = cg then
    match as_bits with
    | 0 -> (Imm 0, 0)
    | 1 -> (Imm 1, 0)
    | 2 -> (Imm 2, 0)
    | _ -> (Imm 0xffff, 0)
  else if reg = sr && as_bits >= 2 then
    if as_bits = 2 then (Imm 4, 0) else (Imm 8, 0)
  else
    match as_bits with
    | 0 -> (Sreg reg, 0)
    | 1 -> (Sidx (reg, take ()), 1)
    | 2 -> (Sind reg, 0)
    | 3 -> if reg = pc then (Imm (take ()), 1) else (Sinc reg, 0)
    | _ -> assert false

let decode word rest =
  let opc = (word lsr 12) land 0xf in
  if opc = 2 || opc = 3 then begin
    let cond = cond_of_code ((word lsr 10) land 0x7) in
    let off = word land 0x3ff in
    let off = if off land 0x200 <> 0 then off - 0x400 else off in
    (Jump { cond; off }, 1)
  end
  else if opc = 1 then begin
    let code = (word lsr 7) land 0x7 in
    if code > 6 then raise (Decode_error (Printf.sprintf "bad one-op %x" word));
    let op = one_op_of_code code in
    let bw = (word lsr 6) land 1 in
    let size = if bw = 1 then Byte else Word in
    (match op, size with
    | (SWPB | SXT | CALL | RETI), Byte ->
      raise (Decode_error "byte mode illegal for this one-op")
    | _ -> ());
    let as_bits = (word lsr 4) land 0x3 in
    let reg = word land 0xf in
    if op = RETI then (One { op; size = Word; dst = Sreg 0 }, 1)
    else
      let dst, used = decode_src ~as_bits ~reg ~rest in
      (One { op; size; dst }, 1 + used)
  end
  else if opc >= 4 then begin
    let op = two_op_of_code opc in
    let sreg = (word lsr 8) land 0xf in
    let ad = (word lsr 7) land 1 in
    let bw = (word lsr 6) land 1 in
    let as_bits = (word lsr 4) land 0x3 in
    let dreg = word land 0xf in
    let size = if bw = 1 then Byte else Word in
    let src, used = decode_src ~as_bits ~reg:sreg ~rest in
    let rest' = List.filteri (fun i _ -> i >= used) rest in
    let dst, dused =
      if ad = 0 then (Dreg dreg, 0)
      else
        match rest' with
        | w :: _ -> (Didx (dreg, w), 1)
        | [] -> raise (Decode_error "missing destination extension word")
    in
    (Two { op; size; src; dst }, 1 + used + dused)
  end
  else raise (Decode_error (Printf.sprintf "illegal opcode word %04x" word))

let flag_c = 0
let flag_z = 1
let flag_n = 2
let flag_gie = 3
let flag_v = 8

let cond_holds cond ~sr_value =
  let b i = (sr_value lsr i) land 1 = 1 in
  match cond with
  | JNE -> not (b flag_z)
  | JEQ -> b flag_z
  | JNC -> not (b flag_c)
  | JC -> b flag_c
  | JN -> b flag_n
  | JGE -> b flag_n = b flag_v
  | JL -> b flag_n <> b flag_v
  | JMP -> true
