(** The MSP430-class instruction set: types, binary encoding, decoding
    and disassembly.

    This is the real MSP430 encoding (format I two-operand, format II
    single-operand, format III jumps; seven addressing modes; R2/R3
    constant generators), which is what makes the gate-level frontend
    of the CPU representative of the paper's openMSP430 target. *)

type reg = int  (** 0..15; 0 = PC, 1 = SP, 2 = SR/CG1, 3 = CG2 *)

val pc : reg
val sp : reg
val sr : reg
val cg : reg

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

(** Source addressing.  [Imm] covers both @PC+ immediates and the
    R2/R3 constant-generator encodings; the encoder picks the short
    form when the value allows. *)
type src =
  | Sreg of reg
  | Sidx of reg * int  (** x(Rn); with Rn = SR this encodes &abs *)
  | Sind of reg  (** @Rn *)
  | Sinc of reg  (** @Rn+ *)
  | Imm of int

type dst = Dreg of reg | Didx of reg * int  (** x(Rn) / &abs via SR *)

type t =
  | Two of { op : two_op; size : size; src : src; dst : dst }
  | One of { op : one_op; size : size; dst : src }
      (** format II operands use source addressing modes *)
  | Jump of { cond : cond; off : int }
      (** [off] in words, -512..511; target = pc + 2 + 2*off *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Encoding} *)

val encode : t -> int list
(** Opcode word followed by extension words (source first). *)

exception Decode_error of string

val decode : int -> int list -> t * int
(** [decode word rest] decodes one instruction whose first word is
    [word] and whose following memory words are [rest] (for extension
    words).  Returns the instruction and the number of words consumed.
    @raise Decode_error on an illegal encoding. *)

(** {1 Condition evaluation} *)

val flag_c : int
val flag_z : int
val flag_n : int
val flag_gie : int
val flag_v : int
(** Bit positions in the status register. *)

val cond_holds : cond -> sr_value:int -> bool
