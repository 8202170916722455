module Netlist = Bespoke_netlist.Netlist

(* A core descriptor: everything the tailoring flow needs to know
   about a processor, bundled as a first-class value.  The analysis,
   cutting, verification and guard layers depend only on this record
   (plus the hook-net naming contract below), never on a concrete
   core, so a new ISA drops into the whole flow — symbolic activity
   analysis, lockstep verification, fault injection, deployment
   guards, the campaign engine — by providing one value of this type.

   Hook-net contract.  Every core netlist exposes the same port and
   named-net surface; only the widths vary with the core's geometry:

   - inputs [pmem_rdata], [dmem_rdata] ([word_bits]), [gpio_in]
     ([word_bits]), [irq] (1)
   - outputs [pmem_addr], [dmem_addr], [dmem_wdata], [dmem_ben]
     ([word_bits]/8 lanes), [dmem_wen], [dmem_ren], [gpio_out],
     [halt]
   - named nets [pc], [state], [ir], [fetching], [insn_boundary],
     [halted], [gpio_wr], [exec_jump], [branch_taken],
     [branch_target], [branch_fallthrough], [irq_pending],
     [irq_flag], [irq_enable], and one net per architectural
     register (via [reg_hook]).

   A core without interrupts ties [irq_pending]/[irq_flag]/
   [irq_enable] to constant zero nets so the analyzer's interrupt
   forking is inert. *)

(* Golden-model instance as a record of closures over hidden state.
   One value per run; [reset] rewinds it to the post-reset state. *)
type iss = {
  reset : unit -> unit;
  step : unit -> unit;  (* one instruction (or one interrupt entry) *)
  halted : unit -> bool;
  pc : unit -> int;
  reg : int -> int;  (* architectural register by core-defined index *)
  cycles : unit -> int;
  retired : unit -> int;  (* instructions retired *)
  read_ram_word : int -> int;  (* by byte address *)
  write_ram_word : int -> int -> unit;
  set_gpio_in : int -> unit;
  gpio_out : unit -> int;
  output_trace : unit -> (int * int) list;  (* (cycle, gpio value) *)
  set_irq_line : bool -> unit;
  irq_entry : unit -> int;  (* interrupt-handler entry pc, or -1 *)
  current_insn : unit -> string;  (* disassembly at the current pc *)
}

(* An assembled program in core-neutral form.  [rom] is word-indexed
   and exactly [rom_words] long; the ISS constructor and the listing
   close over whatever core-native image they need. *)
type image = {
  rom : int array;
  entry : int;
  insn_addrs : int list;  (* instruction start addresses *)
  listing : unit -> string;
  mk_iss : unit -> iss;
}

(* Static classification of the instruction at [pc], from ROM words
   alone.  [ci_next] is the fall-through address. *)
type insn_info = {
  ci_control : bool;  (* can redirect the pc (jump/call/return/...) *)
  ci_cond_branch : bool;  (* conditional branch (coverage counts it) *)
  ci_next : int;
}

type t = {
  name : string;
  word_bits : int;  (* datapath / memory word width *)
  addr_shift : int;  (* log2 bytes per memory word *)
  insn_align : int;  (* instruction address alignment in bytes *)
  mem_words : int;  (* harness memory-array size (power of 2, the
                       word-index mask for both ports) *)
  rom_base : int;
  rom_words : int;  (* architectural ROM extent, <= mem_words *)
  ram_base : int;
  ram_words : int;  (* architectural RAM extent, <= mem_words *)
  reset_extra_cycles : int;  (* gate-level cycles spent in reset *)
  arch_regs : int list;  (* register indices the lockstep compares *)
  reg_name : int -> string;
  reg_hook : int -> string option;  (* None: reads as constant zero *)
  sp_reg : int option;  (* stack pointer's register index, if any *)
  has_irq : bool;
  gie_bit : (string * int) option;  (* global-int-enable (hook, bit) *)
  trace_signals : string list;  (* default VCD signal set *)
  build : unit -> Netlist.t;
  assemble : string -> image;  (* raises on bad source *)
  classify : rom_word:(int -> int) -> pc:int -> insn_info;
  (* Return context for PC-from-memory instructions: the values the
     next pc will be loaded from, so the analyzer can key its merge
     table on them.  The accessors return None for unknown state. *)
  ret_context :
    rom_word:(int -> int) ->
    read_reg:(int -> int option) ->
    read_ram_word:(int -> int option) ->
    pc:int ->
    int * int;
  fuzz_program : seed:int -> string;  (* seed-replayable random program *)
}

let word_bytes c = 1 lsl c.addr_shift
let ben_lanes c = c.word_bits / 8
let rom_bytes c = c.rom_words lsl c.addr_shift
let ram_bytes c = c.ram_words lsl c.addr_shift
let in_rom c a = a >= c.rom_base && a < c.rom_base + rom_bytes c
let in_ram c a = a >= c.ram_base && a < c.ram_base + ram_bytes c
let rom_index c a = (a lsr c.addr_shift) land (c.mem_words - 1)
let ram_index c a = (a lsr c.addr_shift) land (c.mem_words - 1)
let hex_digits c = (c.word_bits + 3) / 4

(* Gate ids of a memory address port's word-index bits: the bits above
   the byte offset that select one of [mem_words] words. *)
let word_index_ids c net name =
  let rec log2 i = if 1 lsl i >= c.mem_words then i else log2 (i + 1) in
  Array.sub (Netlist.find_name net name) c.addr_shift (log2 0)

(* Content hash of an assembled image (ROM contents + entry). *)
let image_hash (img : image) =
  let b = Buffer.create 4096 in
  Array.iter (fun w -> Buffer.add_string b (Printf.sprintf "%x;" w)) img.rom;
  Buffer.add_string b (Printf.sprintf "@%x" img.entry);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Identity of the core itself, for memoization keys: the name plus
   the full geometry, so two cores (or two revisions of one) never
   share cached flow artifacts by accident. *)
let fingerprint c =
  Printf.sprintf "%s/w%d/s%d/a%d/rom%x+%d/ram%x+%d/irq%b" c.name c.word_bits
    c.addr_shift c.insn_align c.rom_base c.rom_words c.ram_base c.ram_words
    c.has_irq
