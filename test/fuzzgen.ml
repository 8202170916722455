(* Core-generic deterministic random-program generator, shared by the
   fuzz tests, the cross-ISA differential matrix and the verification
   campaign's fuzz driver.

   Each core carries its own generator behind
   {!Bespoke_coreapi.Coredef.t.fuzz_program} (the MSP430 one lives in
   [Bespoke_cpu.Msp430.Fuzz], the RV32 one in [Bespoke_rv32.Fuzz]);
   this module only dispatches, so a test that is parameterized over
   cores fuzzes every ISA through one entry point.  Generated programs
   exercise arbitrary mixes of the target ISA and always terminate.
   The same (core, seed) pair always yields the same program, so any
   failure is reproducible from the seed alone — set
   [BESPOKE_FUZZ_SEED] to replay one. *)

module Bit = Bespoke_logic.Bit
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Coredef = Bespoke_coreapi.Coredef

let program_for (core : Coredef.t) ~seed = core.Coredef.fuzz_program ~seed

(* Back-compat entry point: the MSP430 generator, as the original
   single-core fuzz tiers use it. *)
let program ~seed = program_for Bespoke_cpu.Msp430.core ~seed

(* Random netlists for the engine differential tests, from a seeded
   LCG so a failing seed replays. *)
type rng = { mutable s : int }

let next r =
  r.s <- ((r.s * 1103515245) + 12345) land 0x3FFFFFFF;
  (r.s lsr 7) land 0xFFFFFF

let pick r l = List.nth l (next r mod List.length l)

let rand_bit r =
  match next r mod 5 with 0 -> Bit.X | 1 | 2 -> Bit.Zero | _ -> Bit.One

(* Random DAG: inputs, consts (incl. a tied X), a few DFFs whose [d]
   pins are patched to arbitrary gates afterwards (sequential feedback
   allowed), then a layer of random combinational gates. *)
let gen_net seed =
  let r = { s = (seed * 2654435761) lor 1 } in
  let bld = Netlist.Builder.create () in
  let add op fanin =
    Netlist.Builder.add bld { Gate.op; fanin; module_path = ""; drive = 0 }
  in
  let n_in = 3 + (next r mod 4) in
  let inputs = Array.init n_in (fun _ -> add Gate.Input [||]) in
  let consts =
    [ add (Gate.Const Bit.Zero) [||]; add (Gate.Const Bit.One) [||];
      add (Gate.Const Bit.X) [||] ]
  in
  let n_dff = 1 + (next r mod 3) in
  let dffs =
    Array.init n_dff (fun _ ->
        add (Gate.Dff (pick r [ Bit.Zero; Bit.One ])) [| inputs.(0) |])
  in
  let pool = ref (Array.to_list inputs @ consts @ Array.to_list dffs) in
  let n_logic = 20 + (next r mod 40) in
  for _ = 1 to n_logic do
    let op =
      pick r
        [ Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand; Gate.Nor;
          Gate.Xor; Gate.Xnor; Gate.Mux ]
    in
    let fanin = Array.init (Gate.arity op) (fun _ -> pick r !pool) in
    let id = add op fanin in
    pool := id :: !pool
  done;
  (* patch DFF data pins now that the whole gate pool exists *)
  Array.iter
    (fun id ->
      let g = Netlist.Builder.gate bld id in
      Netlist.Builder.set bld id { g with Gate.fanin = [| pick r !pool |] })
    dffs;
  Netlist.Builder.set_output_port bld "out"
    (Array.of_list (List.filteri (fun i _ -> i < 4) !pool));
  (Netlist.Builder.finish bld, inputs)
