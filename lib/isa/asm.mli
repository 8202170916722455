(** Two-pass assembler for the MSP430-class ISA.

    Syntax (one statement per line):
    {v
    ; comment
    label:  mov   #0x0280, sp        ; immediates, CG-optimized
            mov.b @r4+, 3(r5)        ; byte ops, autoincrement, indexed
            cmp   &flag, r6          ; absolute addressing
            jne   loop
            call  #subroutine
            ret                      ; emulated instructions supported
            halt                     ; write to the simulation halt port
            .org  0xf000
            .word 1, 2, label+2
            .space 4                 ; words of zero
            .equ  N, 16
            .entry start             ; reset vector (default: label 'start')
            .irq  handler            ; peripheral IRQ vector
    v}

    Bare expressions as jump/call targets are labels; data operands
    must use an explicit addressing sigil (#, &, @, x(rn)). *)

type image = {
  words : (int * int) list;  (** (byte address, 16-bit word), sorted *)
  entry : int;
  symbols : (string * int) list;
  line_of_addr : (int * int) list;
      (** instruction start address -> 1-based source line *)
}

exception Error of { line : int; message : string }

val assemble : string -> image
(** @raise Error with the offending source line. *)

val image_rom : image -> int array
(** The ROM contents as [Memmap.rom_words] words (unset words are 0),
    indexed from [Memmap.rom_base]. *)

val instruction_addrs : image -> int list
(** Addresses holding the first word of an assembled instruction (for
    line/branch coverage accounting). *)
