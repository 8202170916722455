type image = {
  words : (int * int) list;
  entry : int;
  symbols : (string * int) list;
  line_of_addr : (int * int) list;
}

exception Error of { line : int; message : string }

let err line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

(* ---------- expressions ---------- *)

type atom = Num of int | Sym of string
type expr = (int * atom) list  (* (sign, atom), summed *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let parse_expr ~line (s : string) : expr =
  let s = String.trim s in
  if s = "" then err line "empty expression";
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  let sign = ref 1 in
  let expect_atom = ref true in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if !expect_atom && c = '-' then begin
      sign := - !sign;
      incr i
    end
    else if !expect_atom && c = '+' then incr i
    else if !expect_atom then begin
      let start = !i in
      if c >= '0' && c <= '9' then begin
        while !i < n && is_ident_char s.[!i] do
          incr i
        done;
        let tok = String.sub s start (!i - start) in
        match int_of_string_opt tok with
        | Some v -> out := (!sign, Num v) :: !out
        | None -> err line "bad number %S" tok
      end
      else if is_ident_char c then begin
        while !i < n && is_ident_char s.[!i] do
          incr i
        done;
        out := (!sign, Sym (String.sub s start (!i - start))) :: !out
      end
      else err line "unexpected character %C in expression %S" c s;
      sign := 1;
      expect_atom := false
    end
    else if c = '+' then begin
      incr i;
      expect_atom := true
    end
    else if c = '-' then begin
      incr i;
      sign := -1;
      expect_atom := true
    end
    else err line "unexpected character %C in expression %S" c s
  done;
  if !expect_atom then err line "trailing operator in expression %S" s;
  List.rev !out

let eval_literal (e : expr) : int option =
  List.fold_left
    (fun acc (sign, a) ->
      match acc, a with
      | Some total, Num v -> Some (total + (sign * v))
      | _, Sym _ | None, _ -> None)
    (Some 0) e

let eval_expr ~line ~symbols (e : expr) : int =
  List.fold_left
    (fun total (sign, a) ->
      match a with
      | Num v -> total + (sign * v)
      | Sym s -> (
        match Hashtbl.find_opt symbols s with
        | Some v -> total + (sign * v)
        | None -> err line "undefined symbol %S" s))
    0 e

(* ---------- operands ---------- *)

type operand =
  | OReg of int
  | OImm of expr
  | OAbs of expr
  | OIdx of expr * int
  | OInd of int
  | OInc of int
  | OBare of expr  (* jump targets *)

let parse_reg_opt (s : string) =
  match String.lowercase_ascii (String.trim s) with
  | "pc" | "r0" -> Some 0
  | "sp" | "r1" -> Some 1
  | "sr" | "r2" -> Some 2
  | "cg" | "r3" -> Some 3
  | t ->
    if String.length t >= 2 && t.[0] = 'r' then
      match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
      | Some n when n >= 0 && n <= 15 -> Some n
      | _ -> None
    else None

let parse_operand ~line (s : string) : operand =
  let s = String.trim s in
  if s = "" then err line "empty operand";
  match s.[0] with
  | '#' -> OImm (parse_expr ~line (String.sub s 1 (String.length s - 1)))
  | '&' -> OAbs (parse_expr ~line (String.sub s 1 (String.length s - 1)))
  | '@' ->
    let body = String.sub s 1 (String.length s - 1) in
    let body = String.trim body in
    if String.length body > 0 && body.[String.length body - 1] = '+' then
      let rn = String.sub body 0 (String.length body - 1) in
      (match parse_reg_opt rn with
      | Some r -> OInc r
      | None -> err line "bad register in %S" s)
    else (
      match parse_reg_opt body with
      | Some r -> OInd r
      | None -> err line "bad register in %S" s)
  | _ -> (
    match parse_reg_opt s with
    | Some r -> OReg r
    | None ->
      (* indexed: expr(reg) *)
      if String.length s > 0 && s.[String.length s - 1] = ')' then begin
        match String.index_opt s '(' with
        | Some p ->
          let ex = String.sub s 0 p in
          let rn = String.sub s (p + 1) (String.length s - p - 2) in
          (match parse_reg_opt rn with
          | Some r -> OIdx (parse_expr ~line ex, r)
          | None -> err line "bad register in %S" s)
        | None -> err line "unbalanced parenthesis in %S" s
      end
      else OBare (parse_expr ~line s))

let cg_values = [ 0; 1; 2; 4; 8; 0xffff ]

(* Resolve an expression with whatever symbols are known at this point
   (pass 1 sees symbols defined above the use site; pass 2 sees all). *)
let eval_partial ~symbols (e : expr) : int option =
  List.fold_left
    (fun acc (sign, a) ->
      match acc, a with
      | None, _ -> None
      | Some total, Num v -> Some (total + (sign * v))
      | Some total, Sym s -> (
        match Hashtbl.find_opt symbols s with
        | Some v -> Some (total + (sign * v))
        | None -> None))
    (Some 0) e

(* Number of extension words a source operand needs.  Pass-1 sizing and
   pass-2 encoding must agree: an immediate uses the constant-generator
   short form iff it resolves (with the symbols known so far) to a CG
   value.  A forward reference that later turns out to be a CG constant
   is caught by [encode_checked]. *)
let src_ext_words ~symbols = function
  | OReg _ | OInd _ | OInc _ -> 0
  | OAbs _ | OIdx _ -> 1
  | OImm e -> (
    match eval_partial ~symbols e with
    | Some v when List.mem (v land 0xffff) cg_values -> 0
    | _ -> 1)
  | OBare _ -> 1

let dst_ext_words = function
  | OReg _ -> 0
  | OAbs _ | OIdx _ -> 1
  | (OImm _ | OInd _ | OInc _ | OBare _) -> 1 (* rejected later *)

let to_src ~line ~symbols (o : operand) : Isa.src =
  match o with
  | OReg r -> Isa.Sreg r
  | OImm e -> Isa.Imm (eval_expr ~line ~symbols e land 0xffff)
  | OAbs e -> Isa.Sidx (Isa.sr, eval_expr ~line ~symbols e)
  | OIdx (e, r) -> Isa.Sidx (r, eval_expr ~line ~symbols e)
  | OInd r -> Isa.Sind r
  | OInc r -> Isa.Sinc r
  | OBare _ -> err line "bare expression not allowed as data operand (use #, & or x(rn))"

let to_dst ~line ~symbols (o : operand) : Isa.dst =
  match o with
  | OReg r -> Isa.Dreg r
  | OAbs e -> Isa.Didx (Isa.sr, eval_expr ~line ~symbols e)
  | OIdx (e, r) -> Isa.Didx (r, eval_expr ~line ~symbols e)
  | OImm _ | OInd _ | OInc _ | OBare _ ->
    err line "operand not writable (destination must be reg, &abs or x(rn))"

(* ---------- statements ---------- *)

type stmt =
  | Insn of { mnemonic : string; operands : operand list }
  | Dir_org of expr
  | Dir_word of expr list
  | Dir_space of expr
  | Dir_equ of string * expr
  | Dir_entry of expr
  | Dir_irq of expr

type line_item = { line : int; label : string option; stmt : stmt option }

let split_operands (s : string) =
  if String.trim s = "" then []
  else String.split_on_char ',' s |> List.map String.trim

let parse_line lineno (raw : string) : line_item =
  let no_comment =
    match String.index_opt raw ';' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let text = String.trim no_comment in
  if text = "" then { line = lineno; label = None; stmt = None }
  else
    let label, rest =
      match String.index_opt text ':' with
      | Some i
        when String.for_all is_ident_char (String.sub text 0 i) && i > 0 ->
        ( Some (String.sub text 0 i),
          String.trim (String.sub text (i + 1) (String.length text - i - 1)) )
      | _ -> (None, text)
    in
    if rest = "" then { line = lineno; label; stmt = None }
    else
      let mnemonic, args =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some i ->
          ( String.sub rest 0 i,
            String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
          )
      in
      let mnemonic = String.lowercase_ascii mnemonic in
      let stmt =
        match mnemonic with
        | ".org" -> Dir_org (parse_expr ~line:lineno args)
        | ".word" ->
          Dir_word (List.map (parse_expr ~line:lineno) (split_operands args))
        | ".space" -> Dir_space (parse_expr ~line:lineno args)
        | ".equ" -> (
          match split_operands args with
          | [ name; value ] -> Dir_equ (name, parse_expr ~line:lineno value)
          | _ -> err lineno ".equ wants: .equ name, value")
        | ".entry" -> Dir_entry (parse_expr ~line:lineno args)
        | ".irq" -> Dir_irq (parse_expr ~line:lineno args)
        | _ ->
          Insn
            {
              mnemonic;
              operands =
                List.map (parse_operand ~line:lineno) (split_operands args);
            }
      in
      { line = lineno; label; stmt = Some stmt }

(* ---------- mnemonic tables ---------- *)

let two_ops =
  [
    ("mov", Isa.MOV);
    ("add", Isa.ADD);
    ("addc", Isa.ADDC);
    ("subc", Isa.SUBC);
    ("sub", Isa.SUB);
    ("cmp", Isa.CMP);
    ("dadd", Isa.DADD);
    ("bit", Isa.BIT);
    ("bic", Isa.BIC);
    ("bis", Isa.BIS);
    ("xor", Isa.XOR);
    ("and", Isa.AND);
  ]

let one_ops =
  [
    ("rrc", Isa.RRC);
    ("swpb", Isa.SWPB);
    ("rra", Isa.RRA);
    ("sxt", Isa.SXT);
    ("push", Isa.PUSH);
    ("call", Isa.CALL);
  ]

let jumps =
  [
    ("jne", Isa.JNE);
    ("jnz", Isa.JNE);
    ("jeq", Isa.JEQ);
    ("jz", Isa.JEQ);
    ("jnc", Isa.JNC);
    ("jlo", Isa.JNC);
    ("jc", Isa.JC);
    ("jhs", Isa.JC);
    ("jn", Isa.JN);
    ("jge", Isa.JGE);
    ("jl", Isa.JL);
    ("jmp", Isa.JMP);
  ]

let split_size (m : string) =
  if String.length m > 2 && String.sub m (String.length m - 2) 2 = ".b" then
    (String.sub m 0 (String.length m - 2), Isa.Byte)
  else (m, Isa.Word)

let lit n : operand = OImm [ (1, Num n) ]

(* Emulated instructions expand to exactly one core instruction. *)
let expand_emulated ~line mnemonic operands =
  let one_operand () =
    match operands with
    | [ o ] -> o
    | _ -> err line "%s wants one operand" mnemonic
  in
  let base, size = split_size mnemonic in
  let rebuild m = (m ^ (if size = Isa.Byte then ".b" else ""), size) in
  ignore rebuild;
  match base, operands with
  | "nop", [] -> Some ("mov", size, [ OReg 3; OReg 3 ])
  | "ret", [] -> Some ("mov", size, [ OInc 1; OReg 0 ])
  | "pop", _ -> Some ("mov", size, [ OInc 1; one_operand () ])
  | "br", _ -> Some ("mov", Isa.Word, [ one_operand (); OReg 0 ])
  | "clr", _ -> Some ("mov", size, [ lit 0; one_operand () ])
  | "clrc", [] -> Some ("bic", Isa.Word, [ lit 1; OReg 2 ])
  | "setc", [] -> Some ("bis", Isa.Word, [ lit 1; OReg 2 ])
  | "clrz", [] -> Some ("bic", Isa.Word, [ lit 2; OReg 2 ])
  | "setz", [] -> Some ("bis", Isa.Word, [ lit 2; OReg 2 ])
  | "clrn", [] -> Some ("bic", Isa.Word, [ lit 4; OReg 2 ])
  | "setn", [] -> Some ("bis", Isa.Word, [ lit 4; OReg 2 ])
  | "dint", [] -> Some ("bic", Isa.Word, [ lit 8; OReg 2 ])
  | "eint", [] -> Some ("bis", Isa.Word, [ lit 8; OReg 2 ])
  | "inc", _ -> Some ("add", size, [ lit 1; one_operand () ])
  | "incd", _ -> Some ("add", size, [ lit 2; one_operand () ])
  | "dec", _ -> Some ("sub", size, [ lit 1; one_operand () ])
  | "decd", _ -> Some ("sub", size, [ lit 2; one_operand () ])
  | "tst", _ -> Some ("cmp", size, [ lit 0; one_operand () ])
  | "rla", _ ->
    let o = one_operand () in
    Some ("add", size, [ o; o ])
  | "rlc", _ ->
    let o = one_operand () in
    Some ("addc", size, [ o; o ])
  | "inv", _ -> Some ("xor", size, [ lit 0xffff; one_operand () ])
  | "adc", _ -> Some ("addc", size, [ lit 0; one_operand () ])
  | "sbc", _ -> Some ("subc", size, [ lit 0; one_operand () ])
  | "halt", [] -> Some ("mov", Isa.Word, [ lit 1; OAbs [ (1, Num Memmap.sim_halt) ] ])
  | _ -> None

(* ---------- sizing (pass 1) ---------- *)

let insn_words ~line ~symbols mnemonic operands =
  let resolved =
    match expand_emulated ~line mnemonic operands with
    | Some (m, sz, ops) -> (m, sz, ops)
    | None ->
      let base, size = split_size mnemonic in
      (base, size, operands)
  in
  let m, _, ops = resolved in
  if List.mem_assoc m two_ops then begin
    match ops with
    | [ s; d ] -> 1 + src_ext_words ~symbols s + dst_ext_words d
    | _ -> err line "%s wants two operands" m
  end
  else if List.mem_assoc m one_ops then begin
    match ops with
    | [ d ] ->
      (* call #label takes an extension word; push @r5 doesn't. *)
      1 + src_ext_words ~symbols d
    | _ -> err line "%s wants one operand" m
  end
  else if List.mem_assoc m jumps then 1
  else if m = "reti" then 1
  else err line "unknown mnemonic %S" m

(* ---------- encoding (pass 2) ---------- *)

let encode_insn ~line ~symbols ~addr mnemonic operands : int list =
  let m, size, ops =
    match expand_emulated ~line mnemonic operands with
    | Some (m, sz, ops) -> (m, sz, ops)
    | None ->
      let base, sz = split_size mnemonic in
      (base, sz, operands)
  in
  let words =
    if List.mem_assoc m two_ops then begin
      let op = List.assoc m two_ops in
      match ops with
      | [ s; d ] ->
        Isa.encode
          (Isa.Two
             {
               op;
               size;
               src = to_src ~line ~symbols s;
               dst = to_dst ~line ~symbols d;
             })
      | _ -> err line "%s wants two operands" m
    end
    else if List.mem_assoc m one_ops then begin
      let op = List.assoc m one_ops in
      match ops with
      | [ d ] -> Isa.encode (Isa.One { op; size; dst = to_src ~line ~symbols d })
      | _ -> err line "%s wants one operand" m
    end
    else if List.mem_assoc m jumps then begin
      let cond = List.assoc m jumps in
      match ops with
      | [ OBare e ] | [ OAbs e ] ->
        let target = eval_expr ~line ~symbols e in
        let delta = target - (addr + 2) in
        if delta mod 2 <> 0 then err line "odd jump target";
        let off = delta / 2 in
        if off < -512 || off > 511 then
          err line "jump target out of range (%d words)" off;
        Isa.encode (Isa.Jump { cond; off })
      | _ -> err line "%s wants a label operand" m
    end
    else if m = "reti" then
      Isa.encode (Isa.One { op = Isa.RETI; size = Isa.Word; dst = Isa.Sreg 0 })
    else err line "unknown mnemonic %S" m
  in
  words

(* The pass-1 size and pass-2 encoding must agree; check defensively. *)
let encode_checked ~line ~symbols ~addr mnemonic operands =
  let words = encode_insn ~line ~symbols ~addr mnemonic operands in
  let predicted = insn_words ~line ~symbols mnemonic operands in
  if List.length words <> predicted then
    err line
      "internal: size mismatch for %s (predicted %d words, encoded %d); use a \
       literal immediate"
      mnemonic predicted (List.length words);
  words

(* ---------- driver ---------- *)

let assemble (source : string) : image =
  let lines = String.split_on_char '\n' source in
  let items = List.mapi (fun i l -> parse_line (i + 1) l) lines in
  let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* pass 1: layout *)
  let addr = ref Memmap.rom_base in
  let entry_expr = ref None in
  let irq_expr = ref None in
  List.iter
    (fun { line; label; stmt } ->
      (match label with
      | Some l ->
        if Hashtbl.mem symbols l then err line "duplicate label %S" l;
        Hashtbl.replace symbols l !addr
      | None -> ());
      match stmt with
      | None -> ()
      | Some (Dir_org e) -> (
        match eval_literal e with
        | Some v -> addr := v
        | None -> err line ".org wants a literal address")
      | Some (Dir_word es) -> addr := !addr + (2 * List.length es)
      | Some (Dir_space e) -> (
        match eval_literal e with
        | Some v -> addr := !addr + (2 * v)
        | None -> err line ".space wants a literal count")
      | Some (Dir_equ (name, e)) -> (
        match eval_literal e with
        | Some v -> Hashtbl.replace symbols name v
        | None ->
          (* allow label arithmetic in a second pass? keep it literal *)
          err line ".equ wants a literal value")
      | Some (Dir_entry e) -> entry_expr := Some (line, e)
      | Some (Dir_irq e) -> irq_expr := Some (line, e)
      | Some (Insn { mnemonic; operands }) ->
        if !addr land 1 = 1 then err line "instruction at odd address";
        addr := !addr + (2 * insn_words ~line ~symbols mnemonic operands))
    items;
  (* pass 2: emit *)
  let words = ref [] in
  let line_map = ref [] in
  let emit a w = words := (a, w land 0xffff) :: !words in
  let addr = ref Memmap.rom_base in
  List.iter
    (fun { line; label = _; stmt } ->
      match stmt with
      | None -> ()
      | Some (Dir_org e) -> addr := Option.get (eval_literal e)
      | Some (Dir_word es) ->
        List.iter
          (fun e ->
            emit !addr (eval_expr ~line ~symbols e);
            addr := !addr + 2)
          es
      | Some (Dir_space e) ->
        let k = Option.get (eval_literal e) in
        for _ = 1 to k do
          emit !addr 0;
          addr := !addr + 2
        done
      | Some (Dir_equ _) | Some (Dir_entry _) | Some (Dir_irq _) -> ()
      | Some (Insn { mnemonic; operands }) ->
        let ws = encode_checked ~line ~symbols ~addr:!addr mnemonic operands in
        line_map := (!addr, line) :: !line_map;
        List.iter
          (fun w ->
            emit !addr w;
            addr := !addr + 2)
          ws)
    items;
  let entry =
    match !entry_expr with
    | Some (line, e) -> eval_expr ~line ~symbols e
    | None -> (
      match Hashtbl.find_opt symbols "start" with
      | Some a -> a
      | None -> err 0 "no .entry directive and no 'start' label")
  in
  emit Memmap.reset_vector entry;
  (match !irq_expr with
  | Some (line, e) -> emit Memmap.irq_vector (eval_expr ~line ~symbols e)
  | None -> ());
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a, _) ->
      if Hashtbl.mem seen a then err 0 "overlapping emission at 0x%04x" a
      else Hashtbl.replace seen a ())
    !words;
  {
    words = List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !words);
    entry;
    symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [];
    line_of_addr = List.rev !line_map;
  }

let image_rom (img : image) : int array =
  let rom = Array.make Memmap.rom_words 0 in
  List.iter
    (fun (a, w) ->
      if a >= Memmap.rom_base && a <= 0xffff then
        rom.((a - Memmap.rom_base) / 2) <- w
      else invalid_arg (Printf.sprintf "image word at 0x%04x outside ROM" a))
    img.words;
  rom

let instruction_addrs (img : image) = List.map fst img.line_of_addr
