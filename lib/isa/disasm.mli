(** Disassembly of assembled images. *)

val listing : Asm.image -> string
(** Human-readable listing of every assembled instruction:
    address, raw words, mnemonic. *)
