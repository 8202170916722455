module Isa = Bespoke_isa.Isa
module Memmap = Bespoke_isa.Memmap
open Bespoke_rtl.Rtl

(* FSM state encoding (4 bits). *)
let st_fetch = 0
let st_src_ext = 1
let st_src_rd = 2
let st_dst_ext = 3
let st_dst_rd = 4
let st_exec = 5
let st_dst_wr = 6
let st_push_wr = 7
let st_reti_sr = 8
let st_reti_pc = 9
let st_irq_pc = 10
let st_irq_sr = 11
let st_irq_vec = 12
let st_reset = 13

let c16 n = constant ~width:16 n
let c4 n = constant ~width:4 n

let build () =
  let b = create_builder () in
  (* ---------------- ports ---------------- *)
  let pmem_rdata = input b "pmem_rdata" 16 in
  let dmem_rdata = input b "dmem_rdata" 16 in
  let gpio_in = input b "gpio_in" 16 in
  let irq = input b "irq" 1 in

  (* ---------------- cross-module wires ---------------- *)
  let state = wire 4 in
  let pc = wire 16 in
  let sp = wire 16 in
  let sr = wire 16 in
  let ir = wire 16 in
  let srcv = wire 16 in
  let dstv = wire 16 in
  let mar = wire 16 in
  let res = wire 16 in
  let rf_src = wire 16 in  (* source-port register read *)
  let rf_dst = wire 16 in  (* destination-port register read *)
  let rdata_word = wire 16 in  (* data-space read (periph/RAM/ROM muxed) *)
  let periph_rdata = wire 16 in
  let irq_pending = wire 1 in
  let daddr = wire 16 in
  let dwdata = wire 16 in  (* effective data-space write value *)
  let dwben = wire 2 in
  let data_write = wire 1 in

  let in_state n = state ==: c4 n in
  let s_fetch = in_state st_fetch in
  let s_src_ext = in_state st_src_ext in
  let s_src_rd = in_state st_src_rd in
  let s_dst_ext = in_state st_dst_ext in
  let s_dst_rd = in_state st_dst_rd in
  let s_exec = in_state st_exec in
  let s_dst_wr = in_state st_dst_wr in
  let s_push_wr = in_state st_push_wr in
  let s_reti_sr = in_state st_reti_sr in
  let s_reti_pc = in_state st_reti_pc in
  let s_irq_pc = in_state st_irq_pc in
  let s_irq_sr = in_state st_irq_sr in
  let s_irq_vec = in_state st_irq_vec in
  let s_reset = in_state st_reset in

  (* ---------------- decode (frontend) ---------------- *)
  (* Decode of a raw instruction word [w]; instantiated on the fetched
     word (for next-state selection) and on IR (for everything else). *)
  let decode w =
    let opc = select w ~hi:15 ~lo:12 in
    let fmt_jump = select w ~hi:15 ~lo:13 ==: constant ~width:3 1 in
    let fmt_one = opc ==: c4 1 in
    let fmt_two = bit w 15 |: bit w 14 in
    let sreg2 = select w ~hi:11 ~lo:8 in
    let ad = bit w 7 in
    let bw = bit w 6 in
    let as_ = select w ~hi:5 ~lo:4 in
    let dreg = select w ~hi:3 ~lo:0 in
    let one_code = select w ~hi:9 ~lo:7 in
    let srcreg = mux2 fmt_two dreg sreg2 in
    let sreg_is r = srcreg ==: c4 r in
    let as_is n = as_ ==: constant ~width:2 n in
    let is_reti = fmt_one &: (one_code ==: constant ~width:3 6) in
    let is_push = fmt_one &: (one_code ==: constant ~width:3 4) in
    let is_call = fmt_one &: (one_code ==: constant ~width:3 5) in
    let is_rmw = fmt_one &: ~:(bit one_code 2) in  (* RRC/SWPB/RRA/SXT *)
    (* constant generator *)
    let src_is_cg = sreg_is 3 |: (sreg_is 2 &: bit as_ 1) in
    let src_ext = (as_is 1 &: ~:(sreg_is 3)) |: (as_is 3 &: sreg_is 0) in
    let src_mem =
      (as_is 1 &: ~:(sreg_is 3))
      |: (as_is 2 &: ~:src_is_cg)
      |: (as_is 3 &: ~:(sreg_is 0) &: ~:src_is_cg)
    in
    let writes_dst = ~:(opc ==: c4 0x9) &: ~:(opc ==: c4 0xB) in
    object
      method opc = opc
      method fmt_jump = fmt_jump
      method fmt_one = fmt_one
      method fmt_two = fmt_two
      method ad = ad
      method bw = bw
      method as_ = as_
      method dreg = dreg
      method srcreg = srcreg
      method one_code = one_code
      method is_reti = is_reti
      method is_push = is_push
      method is_call = is_call
      method is_rmw = is_rmw
      method src_is_cg = src_is_cg
      method src_ext = src_ext
      method src_mem = src_mem
      method writes_dst = writes_dst
      method as_is = as_is
      method sreg_is = sreg_is
    end
  in

  (* ---------------- frontend: FSM + IR ---------------- *)
  let d = in_scope b "frontend" (fun () -> decode ir) in
  let fetched = in_scope b "frontend" (fun () -> decode pmem_rdata) in

  in_scope b "frontend" (fun () ->
      (* next state by format, for a fresh decode [dc] *)
      let dst_entry dc =
        mux2 (dc#fmt_two &: dc#ad) (c4 st_exec) (c4 st_dst_ext)
      in
      let after_fetch =
        let dc = fetched in
        let normal =
          mux2 dc#fmt_jump
            (mux2 dc#is_reti
               (mux2 dc#src_ext
                  (mux2 dc#src_mem (dst_entry dc) (c4 st_src_rd))
                  (c4 st_src_ext))
               (c4 st_reti_sr))
            (c4 st_exec)
        in
        mux2 irq_pending normal (c4 st_irq_pc)
      in
      let after_src_ext =
        (* ext word consumed: Sidx goes to SRC_RD, immediate to dst *)
        mux2 d#src_mem (dst_entry d) (c4 st_src_rd)
      in
      let after_exec =
        let mem_wb = d#fmt_two &: d#ad &: d#writes_dst in
        let rmw_mem = d#is_rmw &: d#src_mem in
        mux2
          (d#is_push |: d#is_call)
          (mux2 (mem_wb |: rmw_mem) (c4 st_fetch) (c4 st_dst_wr))
          (c4 st_push_wr)
      in
      let state_next =
        onehot_select
          [
            (s_reset, c4 st_fetch);
            (s_fetch, after_fetch);
            (s_src_ext, after_src_ext);
            (s_src_rd, dst_entry d);
            (s_dst_ext, c4 st_dst_rd);
            (s_dst_rd, c4 st_exec);
            (s_exec, after_exec);
            (s_dst_wr, c4 st_fetch);
            (s_push_wr, c4 st_fetch);
            (s_reti_sr, c4 st_reti_pc);
            (s_reti_pc, c4 st_fetch);
            (s_irq_pc, c4 st_irq_sr);
            (s_irq_sr, c4 st_irq_vec);
            (s_irq_vec, c4 st_fetch);
          ]
          ~default:(c4 st_fetch)
      in
      state <== reg b ~init:st_reset state_next;
      let latch_ir = s_fetch &: ~:irq_pending in
      ir <== reg b ~enable:latch_ir ~init:0 pmem_rdata)
  |> ignore;

  (* ---------------- register file ---------------- *)
  (* ALU results and control signals feed register updates; declare
     the wires they ride on. *)
  let result_regwrite = wire 16 in  (* zero-extended for byte ops *)
  let reg_write_en = wire 1 in  (* EXEC-stage register write *)
  let sr_after_flags = wire 16 in
  let jump_taken = wire 1 in
  let branch_target = wire 16 in

  in_scope b "register_file" (fun () ->
      let autoinc = s_src_rd &: d#as_is 3 in
      let bump r =
        (* byte ops bump by 1 except for PC/SP *)
        let one_byte = d#bw &: ~:(constant ~width:4 r ==: c4 0) &: ~:(constant ~width:4 r ==: c4 1) in
        mux2 one_byte (c16 2) (c16 1)
      in
      let exec_write r = s_exec &: reg_write_en &: (d#dreg ==: c4 r) in
      (* r4..r15 *)
      let gprs =
        List.init 12 (fun i ->
            let r = i + 4 in
            let q = wire 16 in
            let hit_inc = autoinc &: d#sreg_is r in
            let next =
              mux2 (exec_write r) (mux2 hit_inc q (add q (bump r)))
                result_regwrite
            in
            q <== reg b ~init:0 next;
            q)
      in
      (* PC *)
      let pc_plus2 = add pc (c16 2) in
      let pc_next =
        onehot_select
          [
            (s_reset, pmem_rdata);
            (s_fetch &: ~:irq_pending, pc_plus2);
            (s_src_ext, pc_plus2);
            (s_dst_ext, pc_plus2);
            ( s_exec,
              mux2 d#fmt_jump
                (mux2 (reg_write_en &: (d#dreg ==: c4 0)) pc result_regwrite)
                (mux2 jump_taken pc branch_target) );
            (s_push_wr &: d#is_call, srcv);
            (s_reti_pc, rdata_word);
            (s_irq_vec, pmem_rdata);
          ]
          ~default:pc
      in
      pc <== reg b ~init:0 pc_next;
      (* SP *)
      let sp_next =
        onehot_select
          [
            (autoinc &: d#sreg_is 1, add sp (c16 2));
            ( s_exec,
              mux2
                (d#is_push |: d#is_call)
                (mux2 (reg_write_en &: (d#dreg ==: c4 1)) sp result_regwrite)
                (sub sp (c16 2)) );
            (s_irq_pc |: s_irq_sr, sub sp (c16 2));
            (s_reti_sr |: s_reti_pc, add sp (c16 2));
          ]
          ~default:sp
      in
      sp <== reg b ~init:0 sp_next;
      (* SR *)
      let sr_next =
        onehot_select
          [
            ( s_exec,
              mux2 (reg_write_en &: (d#dreg ==: c4 2)) sr_after_flags
                result_regwrite );
            (s_reti_sr, rdata_word);
            (s_irq_sr, zero 16);
          ]
          ~default:sr
      in
      sr <== reg b ~init:0 sr_next;
      (* read ports: index -> value; r3 reads as zero *)
      List.iteri
        (fun i q -> name_net b (Printf.sprintf "r%d" (i + 4)) q)
        gprs;
      let bank = [ pc; sp; sr; zero 16 ] @ gprs in
      let src_idx = mux2 d#fmt_two d#dreg (select ir ~hi:11 ~lo:8) in
      rf_src <== mux src_idx bank;
      rf_dst <== mux d#dreg bank)
  |> ignore;

  (* ---------------- execution unit ---------------- *)
  in_scope b "execution" (fun () ->
      (* effective source operand *)
      let cg_val =
        (* r3: as -> 0,1,2,-1 ; r2: as 2->4, 3->8 *)
        let r3v =
          mux d#as_ [ c16 0; c16 1; c16 2; c16 0xffff ]
        in
        let r2v = mux2 (bit d#as_ 0) (c16 4) (c16 8) in
        mux2 (d#sreg_is 3) r2v r3v
      in
      let src_loaded =
        (* srcv holds the operand: ext-immediate or memory read *)
        d#src_mem |: (d#as_is 3 &: d#sreg_is 0)
      in
      let eff_src_raw =
        mux2 src_loaded (mux2 d#src_is_cg rf_src cg_val) srcv
      in
      let byte_mask v = mux2 d#bw v (uresize (select v ~hi:7 ~lo:0) 16) in
      let eff_src = byte_mask eff_src_raw in
      let eff_dst_raw = mux2 (d#fmt_two &: d#ad) rf_dst dstv in
      let eff_dst = byte_mask eff_dst_raw in

      let flag_c = bit sr 0 in

      (* ---- ALU ---- *)
      let alu =
        in_scope b "alu" (fun () ->
            let opc = d#opc in
            let op_is n = opc ==: c4 n in
            let is_sub = op_is 0x8 |: op_is 0x7 |: op_is 0x9 in
            (* SUB/SUBC/CMP *)
            let b_oper = mux2 is_sub eff_src (byte_mask (~:eff_src)) in
            let cin =
              (* ADD:0 ADDC:C SUB/CMP:1 SUBC:C *)
              mux2 (op_is 0x6 |: op_is 0x7) (mux2 is_sub gnd vdd) flag_c
            in
            let sum, c_word = add_co ~cin eff_dst b_oper in
            (* byte operands are zero-extended, so the bit-7 carry
               appears as sum bit 8 *)
            let c_byte = bit sum 8 in
            let sign_pos v = mux2 d#bw (bit v 15) (bit v 7) in
            let sa = sign_pos eff_dst and sb = sign_pos b_oper in
            let ssum = sign_pos sum in
            let v_add = xnor sa sb &: (ssum ^: sa) in
            (* BCD adder (DADD): chain of decimal digit adders *)
            let bcd_out, bcd_carry =
              let carry = ref flag_c in
              let carries = Array.make 4 flag_c in
              let digits =
                List.init 4 (fun i ->
                    let da = select eff_dst ~hi:((4 * i) + 3) ~lo:(4 * i) in
                    let db = select eff_src ~hi:((4 * i) + 3) ~lo:(4 * i) in
                    let t5v, _ = add_co ~cin:!carry (uresize da 5) (uresize db 5) in
                    let gt9 =
                      bit t5v 4 |: (bit t5v 3 &: (bit t5v 2 |: bit t5v 1))
                    in
                    let adj = add t5v (constant ~width:5 6) in
                    let digit = mux2 gt9 (select t5v ~hi:3 ~lo:0) (select adj ~hi:3 ~lo:0) in
                    carry := gt9;
                    carries.(i) <- gt9;
                    digit)
              in
              (* byte ops take the carry out of digit 1 *)
              (concat digits, mux2 d#bw carries.(3) carries.(1))
            in
            let logic_and = eff_dst &: eff_src in
            let logic_bic = eff_dst &: byte_mask (~:eff_src) in
            let logic_bis = eff_dst |: eff_src in
            let logic_xor = eff_dst ^: eff_src in
            let two_result =
              mux (select opc ~hi:3 ~lo:0)
                [
                  zero 16; zero 16; zero 16; zero 16;
                  eff_src (* MOV *);
                  sum (* ADD *);
                  sum (* ADDC *);
                  sum (* SUBC *);
                  sum (* SUB *);
                  sum (* CMP *);
                  bcd_out (* DADD *);
                  logic_and (* BIT *);
                  logic_bic (* BIC *);
                  logic_bis (* BIS *);
                  logic_xor (* XOR *);
                  logic_and (* AND *);
                ]
            in
            (* one-op unit *)
            let msb_in = mux2 d#bw (bit eff_src 15) (bit eff_src 7) in
            let shr_word = select eff_src ~hi:15 ~lo:1 in
            let rrc_fill = flag_c in
            let rrc_w = concat [ shr_word; rrc_fill ] in
            let rra_w = concat [ shr_word; msb_in ] in
            (* For byte size, bit 7 of the shifted result must be the
               fill bit and bits 15:8 zero. *)
            let fix_byte v fill =
              mux2 d#bw v
                (concat
                   [ select eff_src ~hi:7 ~lo:1; fill; zero 8 ])
            in
            let rrc_res = fix_byte rrc_w rrc_fill in
            let rra_res = fix_byte rra_w msb_in in
            let swpb_res =
              concat [ select eff_src ~hi:15 ~lo:8; select eff_src ~hi:7 ~lo:0 ]
            in
            let sxt_res =
              concat [ select eff_src ~hi:7 ~lo:0; repeat (bit eff_src 7) 8 ]
            in
            let one_result =
              mux (select d#one_code ~hi:1 ~lo:0)
                [ rrc_res; swpb_res; rra_res; sxt_res ]
            in
            let result = mux2 d#fmt_one two_result one_result in
            (* flags *)
            let sized_result =
              mux2 d#bw result (uresize (select result ~hi:7 ~lo:0) 16)
            in
            let z = is_zero sized_result in
            let n = mux2 d#bw (bit result 15) (bit result 7) in
            let c_arith = mux2 d#bw c_word c_byte in
            let is_sxt = d#fmt_one &: (select d#one_code ~hi:1 ~lo:0 ==: constant ~width:2 3) in
            let n_final = mux2 is_sxt n (bit result 15) in
            let z_sxt = is_zero result in
            let z_final = mux2 is_sxt z z_sxt in
            let is_shift = d#fmt_one &: ~:(bit d#one_code 0) in  (* RRC/RRA *)
            let c_logic = ~:z_final in
            let op_is_arith =
              op_is 5 |: op_is 6 |: op_is 7 |: op_is 8 |: op_is 9
            in
            let c_out =
              mux2 d#fmt_one
                (mux2 op_is_arith
                   (mux2 (op_is 0xA) c_logic bcd_carry)
                   c_arith)
                (mux2 is_shift c_logic (bit eff_src 0))
            in
            let v_out =
              mux2 d#fmt_one
                (mux2 op_is_arith
                   (mux2 (op_is 0xE)
                      (constant ~width:1 0)
                      (sign_pos eff_dst &: sign_pos eff_src))
                   v_add)
                gnd
            in
            let flags_write =
              mux2 d#fmt_one
                (d#fmt_two &: ~:(op_is 4) &: ~:(op_is 0xC) &: ~:(op_is 0xD))
                (d#is_rmw
                &: ~:(select d#one_code ~hi:1 ~lo:0 ==: constant ~width:2 1))
            in
            object
              method result = result
              method sized_result = sized_result
              method z = z_final
              method n = n_final
              method c = c_out
              method v = v_out
              method flags_write = flags_write
            end)
      in
      let set_bit v i x =
        let lo = if i = 0 then [] else [ select v ~hi:(i - 1) ~lo:0 ] in
        let hi = if i = 15 then [] else [ select v ~hi:15 ~lo:(i + 1) ] in
        concat (lo @ [ x ] @ hi)
      in
      let sr1 = set_bit sr 0 alu#c in
      let sr2 = set_bit sr1 1 alu#z in
      let sr3 = set_bit sr2 2 alu#n in
      let sr4 = set_bit sr3 8 alu#v in
      sr_after_flags <== mux2 alu#flags_write sr sr4;
      (* byte results zero-extend into registers *)
      result_regwrite <== alu#sized_result;
      reg_write_en
      <== ((d#fmt_two &: d#writes_dst &: ~:(d#ad))
          |: (d#is_rmw &: d#as_is 0));
      (* jump condition *)
      let z = bit sr 1 and c = bit sr 0 and n = bit sr 2 and v = bit sr 8 in
      let cond = select ir ~hi:12 ~lo:10 in
      jump_taken
      <== (d#fmt_jump
          &: mux cond
               [ ~:z; z; ~:c; c; n; xnor n v; n ^: v; vdd ]);
      let off = sresize (select ir ~hi:9 ~lo:0) 16 in
      branch_target <== add pc (sll_const off 1);
      (* source address for SRC_RD: indexed uses MAR, @Rn/@Rn+ use the
         register directly *)
      let src_addr = mux2 (d#as_is 1) rf_src mar in
      let read_byte =
        mux2 (bit daddr 0) (select rdata_word ~hi:7 ~lo:0)
          (select rdata_word ~hi:15 ~lo:8)
      in
      let sized_read = mux2 d#bw rdata_word (uresize read_byte 16) in
      let srcv_next =
        onehot_select
          [
            (s_src_ext &: ~:(d#src_mem), pmem_rdata);  (* immediate *)
            (s_src_rd, sized_read);
            (s_exec, eff_src);  (* stash operand for PUSH/CALL *)
          ]
          ~default:srcv
      in
      srcv <== reg b ~init:0 srcv_next;
      dstv <== reg b ~enable:s_dst_rd ~init:0 sized_read;
      (* MAR: indexed source at SRC_EXT, latched effective address at
         SRC_RD (for RMW writeback), destination address at DST_EXT *)
      let src_base =
        let r = select ir ~hi:11 ~lo:8 in
        let r = mux2 d#fmt_two (select ir ~hi:3 ~lo:0) r in
        mux2 (r ==: c4 2) (mux2 (r ==: c4 0) rf_src (add pc (c16 2)))
          (zero 16)
      in
      let dst_base =
        mux2 (d#dreg ==: c4 2)
          (mux2 (d#dreg ==: c4 0) rf_dst (add pc (c16 2)))
          (zero 16)
      in
      let mar_next =
        onehot_select
          [
            (s_src_ext &: d#src_mem, add src_base pmem_rdata);
            (s_src_rd, src_addr);
            (s_dst_ext, add dst_base pmem_rdata);
          ]
          ~default:mar
      in
      mar <== reg b ~init:0 mar_next;
      (* result register *)
      let res_next =
        mux2 d#is_call alu#result pc
      in
      res <== reg b ~enable:s_exec ~init:0
               (mux2 d#is_push res_next eff_src);
      (* data-space address *)
      daddr
      <== onehot_select
            [
              (s_src_rd, src_addr);
              (s_dst_rd |: s_dst_wr, mar);
              (s_push_wr, sp);
              (s_reti_sr |: s_reti_pc, sp);
              (s_irq_pc |: s_irq_sr, sub sp (c16 2));
            ]
            ~default:mar;
      (* write value and byte enables *)
      let wr_byte = d#bw &: s_dst_wr in
      let res_byte = select res ~hi:7 ~lo:0 in
      dwdata
      <== onehot_select
            [
              (s_dst_wr, mux2 wr_byte res (concat [ res_byte; res_byte ]));
              (s_push_wr, res);
              (s_irq_pc, pc);
              (s_irq_sr, sr);
            ]
            ~default:res;
      dwben
      <== mux2 wr_byte (ones 2)
            (mux2 (bit daddr 0) (constant ~width:2 1) (constant ~width:2 2));
      data_write <== (s_dst_wr |: s_push_wr |: s_irq_pc |: s_irq_sr))
  |> ignore;

  (* ---------------- memory backbone ---------------- *)
  let halted = wire 1 in
  in_scope b "mem_backbone" (fun () ->
      let in_periph = select daddr ~hi:15 ~lo:9 ==: constant ~width:7 0 in
      let in_ram =
        (daddr >=: c16 Memmap.ram_base)
        &: (daddr <: c16 (Memmap.ram_base + Memmap.ram_bytes))
      in
      let in_rom = select daddr ~hi:15 ~lo:12 ==: c4 0xF in
      let data_read = s_src_rd |: s_dst_rd |: s_reti_sr |: s_reti_pc in
      (* instruction-space address: fetch/ext states use PC, the IRQ
         vector state uses the vector address, ROM data reads use the
         data address *)
      let fetch_like = s_fetch |: s_src_ext |: s_dst_ext in
      let pmem_addr =
        onehot_select
          [
            (fetch_like, pc);
            (s_reset, c16 Memmap.reset_vector);
            (s_irq_vec, c16 Memmap.irq_vector);
          ]
          ~default:daddr
      in
      output b "pmem_addr" pmem_addr;
      rdata_word
      <== mux2 in_periph
            (mux2 in_ram (mux2 in_rom (zero 16) pmem_rdata) dmem_rdata)
            periph_rdata;
      output b "dmem_addr" daddr;
      output b "dmem_wdata" dwdata;
      output b "dmem_ben" dwben;
      output b "dmem_wen" (data_write &: in_ram);
      output b "dmem_ren" (data_read &: in_ram))
  |> ignore;

  (* ---------------- peripherals ---------------- *)
  let pwrite = wire 1 in
  pwrite
  <== (data_write &: (select daddr ~hi:15 ~lo:9 ==: constant ~width:7 0));
  (* Address decode lives in the memory backbone (not inside the
     peripheral that uses it): decode gates toggle with every bus
     transaction, and keeping them out of the peripheral modules lets
     a never-written peripheral be removed wholesale. *)
  let addr_is a =
    at_scope b "mem_backbone" (fun () ->
        select daddr ~hi:15 ~lo:1 ==: constant ~width:15 (a lsr 1))
  in
  let strobe a = at_scope b "mem_backbone" (fun () -> pwrite &: addr_is a) in
  (* Byte-lane merge against the current register value.  The write
     bus is isolated per register by its own strobe (AND gating), so
     a peripheral that is never written never sees the bus toggle —
     its whole module can then be pruned, as in the paper. *)
  let lane_merge ~strobe:stb cur =
    let gated = repeat stb 16 &: dwdata in
    concat
      [
        mux2 (bit dwben 0) (select cur ~hi:7 ~lo:0) (select gated ~hi:7 ~lo:0);
        mux2 (bit dwben 1) (select cur ~hi:15 ~lo:8) (select gated ~hi:15 ~lo:8);
      ]
  in
  let periph_reg ?(width = 16) addr =
    let q = wire width in
    let stb = strobe addr in
    let merged = select (lane_merge ~strobe:stb (uresize q 16)) ~hi:(width - 1) ~lo:0 in
    q <== reg b ~enable:stb ~init:0 merged;
    q
  in

  (* sfr: interrupt enable/flag, halt flag *)
  let ie, ifg =
    in_scope b "sfr" (fun () ->
        let ie = periph_reg Memmap.sfr_ie in
        let ifg = wire 16 in
        let ifg_merged = lane_merge ~strobe:(strobe Memmap.sfr_ifg) ifg in
        let ifg0_next =
          mux2 s_irq_sr
            (mux2 (strobe Memmap.sfr_ifg) (bit ifg 0 |: irq) (bit ifg_merged 0))
            gnd
        in
        let ifg_hi_next =
          mux2 (strobe Memmap.sfr_ifg)
            (select ifg ~hi:15 ~lo:1)
            (select ifg_merged ~hi:15 ~lo:1)
        in
        ifg <== reg b ~init:0 (concat [ ifg0_next; ifg_hi_next ]);
        let halt_next = halted |: (strobe Memmap.sim_halt) in
        halted <== reg b ~init:0 halt_next;
        output b "halt" halted;
        (ie, ifg))
  in
  irq_pending <== (bit sr 3 &: bit ie 0 &: bit ifg 0);

  (* gpio *)
  let gpio_out =
    in_scope b "gpio" (fun () ->
        let q = periph_reg Memmap.gpio_out in
        output b "gpio_out" q;
        name_net b "gpio_wr" (strobe Memmap.gpio_out);
        q)
  in

  (* clock module: control + 20-bit divided counter; the counter only
     runs when enabled (ctl bit 2), so an application that never
     starts it leaves the whole module quiescent *)
  let clk_ctl, clk_view =
    in_scope b "clock_module" (fun () ->
        let ctl = periph_reg Memmap.clk_ctl in
        let cnt = wire 20 in
        let running = bit ctl 2 &: ~:s_reset in
        cnt
        <== reg b ~init:0
              (mux2 running cnt (add cnt (constant ~width:20 1)));
        let view =
          mux (select ctl ~hi:1 ~lo:0)
            [
              select cnt ~hi:15 ~lo:0;
              select cnt ~hi:16 ~lo:1;
              select cnt ~hi:17 ~lo:2;
              select cnt ~hi:18 ~lo:3;
            ]
        in
        (ctl, view))
  in

  (* watchdog *)
  let wdt_ctl, wdt_cnt =
    in_scope b "watchdog" (fun () ->
        let ctl = wire 16 in
        ctl
        <== reg b ~enable:(strobe Memmap.wdt_ctl) ~init:0x80
              (lane_merge ~strobe:(strobe Memmap.wdt_ctl) ctl);
        let cnt = wire 16 in
        let running = ~:(bit ctl 7) in
        cnt
        <== reg b ~init:0
              (mux2 (strobe Memmap.wdt_ctl)
                 (mux2 running cnt (add cnt (c16 1)))
                 (zero 16));
        (ctl, cnt))
  in

  (* debug block *)
  let dbg_ctl, dbg_pc, dbg_brk, dbg_cyc =
    in_scope b "dbg" (fun () ->
        let ctl = wire 16 in
        let brk = periph_reg Memmap.dbg_brk in
        let at_fetch = s_fetch &: ~:irq_pending in
        let brk_hit = at_fetch &: bit ctl 1 &: (pc ==: brk) in
        let ctl_merged = lane_merge ~strobe:(strobe Memmap.dbg_ctl) ctl in
        let ctl_next =
          mux2 (strobe Memmap.dbg_ctl)
            (mux2 brk_hit ctl (ctl |: c16 0x8000))
            ctl_merged
        in
        ctl <== reg b ~init:0 ctl_next;
        let pcs = wire 16 in
        pcs <== reg b ~enable:(at_fetch &: bit ctl 0) ~init:0 pc;
        (* the cycle counter runs only while tracing is enabled *)
        let cyc = wire 32 in
        let counting = bit ctl 0 &: ~:s_reset in
        cyc
        <== reg b ~init:0
              (mux2 counting cyc (add cyc (constant ~width:32 1)));
        (ctl, pcs, brk, cyc))
  in

  (* hardware multiplier *)
  let mpy_op1, mpy_reslo, mpy_reshi =
    in_scope b "multiplier" (fun () ->
        let op1 = wire 16 in
        let op1_strobe = strobe Memmap.mpy_op1 |: strobe Memmap.mpy_mac in
        op1 <== reg b ~enable:op1_strobe ~init:0 (lane_merge ~strobe:op1_strobe op1);
        let mac_mode = wire 1 in
        mac_mode
        <== reg b ~enable:op1_strobe ~init:0
              (uresize (strobe Memmap.mpy_mac) 1);
        let reslo = wire 16 and reshi = wire 16 in
        let op2val = lane_merge ~strobe:(strobe Memmap.mpy_op2) (zero 16) in
        (* with ben=11 this is just dwdata; byte writes merge with 0 *)
        let product = op1 *: op2val in
        let acc = concat [ reslo; reshi ] in
        let acc_in = mux2 mac_mode (zero 32) acc in
        let total = add acc_in product in
        let trigger = strobe Memmap.mpy_op2 in
        let reslo_next =
          onehot_select
            [
              (trigger, select total ~hi:15 ~lo:0);
              (strobe Memmap.mpy_reslo, lane_merge ~strobe:(strobe Memmap.mpy_reslo) reslo);
            ]
            ~default:reslo
        in
        let reshi_next =
          onehot_select
            [
              (trigger, select total ~hi:31 ~lo:16);
              (strobe Memmap.mpy_reshi, lane_merge ~strobe:(strobe Memmap.mpy_reshi) reshi);
            ]
            ~default:reshi
        in
        reslo <== reg b ~init:0 reslo_next;
        reshi <== reg b ~init:0 reshi_next;
        (op1, reslo, reshi))
  in

  (* peripheral read mux *)
  periph_rdata
  <== onehot_select
        [
          (addr_is Memmap.sfr_ie, ie);
          (addr_is Memmap.sfr_ifg, ifg);
          (addr_is Memmap.gpio_in, gpio_in);
          (addr_is Memmap.gpio_out, gpio_out);
          (addr_is Memmap.clk_ctl, clk_ctl);
          (addr_is Memmap.clk_cnt, clk_view);
          (addr_is Memmap.wdt_ctl, wdt_ctl);
          (addr_is Memmap.wdt_cnt, wdt_cnt);
          (addr_is Memmap.dbg_ctl, dbg_ctl);
          (addr_is Memmap.dbg_pc, dbg_pc);
          (addr_is Memmap.dbg_brk, dbg_brk);
          (addr_is Memmap.dbg_cyc_lo, select dbg_cyc ~hi:15 ~lo:0);
          (addr_is Memmap.dbg_cyc_hi, select dbg_cyc ~hi:31 ~lo:16);
          (addr_is Memmap.mpy_op1, mpy_op1);
          (addr_is Memmap.mpy_mac, mpy_op1);
          (addr_is Memmap.mpy_reslo, mpy_reslo);
          (addr_is Memmap.mpy_reshi, mpy_reshi);
        ]
        ~default:(zero 16);

  (* ---------------- analysis hooks ---------------- *)
  name_net b "pc" pc;
  name_net b "state" state;
  name_net b "ir" ir;
  name_net b "sp" sp;
  name_net b "sr" sr;
  name_net b "fetching" (s_fetch &: ~:irq_pending);
  name_net b "insn_boundary" s_fetch;
  name_net b "irq_pending" irq_pending;
  name_net b "irq_flag" (bit ifg 0);
  name_net b "irq_enable" (bit ie 0);
  name_net b "branch_taken" jump_taken;
  name_net b "branch_target" branch_target;
  name_net b "branch_fallthrough" pc;
  name_net b "halted" halted;
  name_net b "exec_jump" (in_state st_exec &: d#fmt_jump);
  synthesize b
