module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Rtl = Bespoke_rtl.Rtl
module Engine = Bespoke_sim.Engine
module Memory = Bespoke_sim.Memory
module Vcd = Bespoke_sim.Vcd

(* ---- Engine activity tracking ---- *)

let counter_net () =
  let b = Rtl.create_builder () in
  let en = Rtl.input b "en" 1 in
  let count = Rtl.wire 4 in
  let q = Rtl.reg b ~enable:en ~init:0 (Rtl.add count (Rtl.constant ~width:4 1)) in
  Rtl.( <== ) count q;
  Rtl.output b "q" q;
  Rtl.synthesize b

let test_toggle_counting () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_int eng "en" 1;
  Engine.eval eng;
  Engine.commit_cycle eng;
  for _ = 1 to 8 do
    Engine.step eng;
    Engine.commit_cycle eng
  done;
  let q_ids = Bespoke_netlist.Netlist.find_output (Engine.netlist eng) "q" in
  let toggles = Engine.toggle_counts eng in
  (* Bit 0 of a counter flips every cycle; bit 3 flips once (at 8). *)
  Alcotest.(check int) "bit0 toggles" 8 toggles.(q_ids.(0));
  Alcotest.(check int) "bit3 toggles" 1 toggles.(q_ids.(3))

let test_possibly_toggled_x () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_x eng "en";
  Engine.eval eng;
  Engine.commit_cycle eng;
  Engine.step eng;
  Engine.commit_cycle eng;
  let q_ids = Bespoke_netlist.Netlist.find_output (Engine.netlist eng) "q" in
  let poss = Engine.possibly_toggled eng in
  (* With an unknown enable the counter value is unknown: exercisable. *)
  Alcotest.(check bool) "bit0 possibly toggled" true poss.(q_ids.(0))

let test_held_means_untoggled () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_int eng "en" 0;
  Engine.eval eng;
  Engine.commit_cycle eng;
  for _ = 1 to 5 do
    Engine.step eng;
    Engine.commit_cycle eng
  done;
  let q_ids = Bespoke_netlist.Netlist.find_output (Engine.netlist eng) "q" in
  let poss = Engine.possibly_toggled eng in
  Array.iter
    (fun id -> Alcotest.(check bool) "held reg untoggled" false poss.(id))
    q_ids

let test_dff_state_roundtrip () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_int eng "en" 1;
  Engine.eval eng;
  Engine.step eng;
  Engine.step eng;
  let s = Engine.dff_state eng in
  Engine.step eng;
  Engine.step eng;
  Alcotest.(check (option int)) "advanced" (Some 4) (Engine.read_int eng "q");
  Engine.restore_dff_state eng s;
  Alcotest.(check (option int)) "restored" (Some 2) (Engine.read_int eng "q")

(* ---- Memory ---- *)

let v16 = Bvec.of_int ~width:16
let mask_all = v16 0xffff

let test_mem_rw () =
  let m = Memory.create ~words:64 ~width:16 ~init:Bit.Zero in
  Memory.write m ~addr:(Bvec.of_int ~width:6 5) ~data:(v16 0xbeef)
    ~mask:mask_all ~en:Bit.One;
  Alcotest.(check (option int)) "read back" (Some 0xbeef)
    (Bvec.to_int (Memory.read m (Bvec.of_int ~width:6 5)));
  Alcotest.(check (option int)) "other word" (Some 0)
    (Bvec.to_int (Memory.read m (Bvec.of_int ~width:6 6)))

let test_mem_byte_mask () =
  let m = Memory.create ~words:16 ~width:16 ~init:Bit.Zero in
  Memory.load_int m 3 0x1234;
  Memory.write m ~addr:(Bvec.of_int ~width:4 3) ~data:(v16 0xabcd)
    ~mask:(v16 0x00ff) ~en:Bit.One;
  Alcotest.(check (option int)) "low byte written" (Some 0x12cd)
    (Bvec.to_int (Memory.read_word m 3))

let test_mem_x_enable_merges () =
  let m = Memory.create ~words:16 ~width:16 ~init:Bit.Zero in
  Memory.load_int m 2 0x00ff;
  Memory.write m ~addr:(Bvec.of_int ~width:4 2) ~data:(v16 0x0ff0)
    ~mask:mask_all ~en:Bit.X;
  let w = Memory.read_word m 2 in
  (* old 0x00ff vs new 0x0ff0: agreeing bits (15-12 zero, 7-4 one)
     stay known; disagreeing bits become X *)
  Alcotest.(check string) "merged" "0000xxxx1111xxxx"
    (String.lowercase_ascii (Bvec.to_string w))

let test_mem_x_addr_read () =
  let m = Memory.create ~words:8 ~width:8 ~init:Bit.Zero in
  Memory.load_int m 0 0xaa;
  Memory.load_int m 1 0xab;
  let addr = Bvec.of_string "00x" in
  let r = Memory.read m addr in
  (* words 0 and 1: 0xaa / 0xab differ only in bit 0 *)
  Alcotest.(check string) "merged read" "1010101x" (Bvec.to_string r)

let test_mem_x_addr_write () =
  let m = Memory.create ~words:4 ~width:8 ~init:Bit.Zero in
  Memory.load_int m 0 0x00;
  Memory.load_int m 1 0x00;
  Memory.load_int m 2 0x77;
  Memory.load_int m 3 0x77;
  let addr = Bvec.of_string "x0" in
  (* candidates: 0 and 2 *)
  Memory.write m ~addr ~data:(Bvec.of_int ~width:8 0xff) ~mask:(Bvec.of_int ~width:8 0xff)
    ~en:Bit.One;
  Alcotest.(check string) "word0 merged" "xxxxxxxx"
    (Bvec.to_string (Memory.read_word m 0));
  Alcotest.(check string) "word2 merged" "x111x111"
    (Bvec.to_string (Memory.read_word m 2));
  Alcotest.(check (option int)) "word1 untouched" (Some 0)
    (Bvec.to_int (Memory.read_word m 1))

let test_mem_snapshots () =
  let m = Memory.create ~words:8 ~width:8 ~init:Bit.Zero in
  Memory.load_int m 1 42;
  let s1 = Memory.snapshot m in
  Memory.load_int m 1 43;
  let s2 = Memory.snapshot m in
  Alcotest.(check bool) "not equal" false (Memory.equal_snapshot s1 s2);
  let merged = Memory.merge_snapshot s1 s2 in
  Alcotest.(check bool) "merged subsumes s1" true
    (Memory.subsumes ~general:merged ~specific:s1);
  Alcotest.(check bool) "merged subsumes s2" true
    (Memory.subsumes ~general:merged ~specific:s2);
  Memory.restore m s1;
  Alcotest.(check (option int)) "restored" (Some 42)
    (Bvec.to_int (Memory.read_word m 1))

let test_mem_set_x_range () =
  let m = Memory.create ~words:8 ~width:8 ~init:Bit.Zero in
  Memory.set_x_range m ~lo:2 ~hi:3;
  Alcotest.(check bool) "x region" false (Bvec.is_known (Memory.read_word m 2));
  Alcotest.(check bool) "outside known" true (Bvec.is_known (Memory.read_word m 4))

(* Conservative-write soundness: a ternary write with X in the
   address, data, mask or enable must leave the memory subsuming every
   concrete outcome. *)
let gen_tern width =
  QCheck.Gen.(
    list_size (return width) (frequencyl [ (4, Bit.Zero); (4, Bit.One); (2, Bit.X) ])
    |> map Array.of_list)

let test_mem_conservative_write =
  QCheck.Test.make ~name:"ternary write subsumes all concrete outcomes"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         let* addr = gen_tern 3 in
         let* data = gen_tern 8 in
         let* mask = gen_tern 8 in
         let* en = oneofl [ Bit.Zero; Bit.One; Bit.X ] in
         return (addr, data, mask, en)))
    (fun (addr, data, mask, en) ->
      QCheck.assume
        (Bvec.count_x addr + Bvec.count_x data + Bvec.count_x mask
         + (if Bit.is_known en then 0 else 1)
        <= 5);
      let init = Array.init 8 (fun i -> (i * 37) land 0xff) in
      let tern = Memory.create ~words:8 ~width:8 ~init:Bit.Zero in
      List.iteri (fun i v -> Memory.load_int tern i v) (Array.to_list init);
      Memory.write tern ~addr ~data ~mask ~en;
      (* every concrete choice of the unknowns *)
      let concrete_cases =
        List.concat_map
          (fun a ->
            List.concat_map
              (fun d ->
                List.concat_map
                  (fun m ->
                    List.map (fun e -> (a, d, m, e)) (Bit.concretizations en))
                  (Bvec.concretizations mask))
              (Bvec.concretizations data))
          (Bvec.concretizations addr)
      in
      List.for_all
        (fun (a, d, m, e) ->
          let model = Array.copy init in
          (if Bit.equal e Bit.One then
             let idx = Bvec.to_int_exn a in
             let dv = Bvec.to_int_exn d and mv = Bvec.to_int_exn m in
             model.(idx) <- (model.(idx) land lnot mv) lor (dv land mv));
          (* each model word must be subsumed by the ternary word *)
          Array.for_all (fun x -> x)
            (Array.mapi
               (fun w v ->
                 Bvec.subsumes ~general:(Memory.read_word tern w)
                   ~specific:(Bvec.of_int ~width:8 v))
               model))
        concrete_cases)

(* qcheck: memory write/read with known addresses behaves like an array *)
let test_mem_model =
  QCheck.Test.make ~name:"memory matches array model" ~count:200
    QCheck.(small_list (pair (int_bound 15) (int_bound 0xffff)))
    (fun writes ->
      let m = Memory.create ~words:16 ~width:16 ~init:Bit.Zero in
      let model = Array.make 16 0 in
      List.iter
        (fun (a, d) ->
          Memory.write m ~addr:(Bvec.of_int ~width:4 a) ~data:(v16 d)
            ~mask:mask_all ~en:Bit.One;
          model.(a) <- d)
        writes;
      List.for_all
        (fun a -> Bvec.to_int (Memory.read_word m a) = Some model.(a))
        (List.init 16 (fun i -> i)))

let test_mem_width_guard () =
  Alcotest.check_raises "width 63"
    (Invalid_argument "Memory.create: width above 62") (fun () ->
      ignore (Memory.create ~words:4 ~width:63 ~init:Bit.Zero));
  let m = Memory.create ~words:4 ~width:62 ~init:Bit.Zero in
  Memory.load_int m 1 max_int;
  Alcotest.(check (option int)) "62-bit word" (Some max_int)
    (Memory.read_word_int m 1)

(* Byte-per-bit reference memory (codes 0/1/2 = Zero/One/X, one byte
   per stored bit): the straightforward ternary model the packed
   {!Memory} must agree with exactly. *)
module Oracle = struct
  type t = { store : Bytes.t; words : int; width : int }

  let create ~words ~width =
    { store = Bytes.make (words * width) '\000'; words; width }

  let get t w i = Bit.of_int_exn (Char.code (Bytes.get t.store ((w * t.width) + i)))
  let put t w i b = Bytes.set t.store ((w * t.width) + i) (Char.chr (Bit.to_int b))
  let read_word t w = Array.init t.width (get t (w land (t.words - 1)))

  let load_int t w n =
    Array.iteri (fun i b -> put t (w land (t.words - 1)) i b)
      (Bvec.of_int ~width:t.width n)

  let write_masked_int t w ~data ~mask =
    for i = 0 to t.width - 1 do
      if (mask lsr i) land 1 = 1 then
        put t (w land (t.words - 1)) i (Bit.of_bool ((data lsr i) land 1 = 1))
    done

  let set_x_range t ~lo ~hi =
    for w = lo to hi do
      for i = 0 to t.width - 1 do
        put t (w land (t.words - 1)) i Bit.X
      done
    done

  (* the known index bits as a base index, and the X ones as a list *)
  let index_pattern t (addr : Bvec.t) =
    let base = ref 0 and free = ref [] in
    let i = ref 0 in
    while 1 lsl !i < t.words do
      (match if !i < Bvec.width addr then addr.(!i) else Bit.Zero with
      | Bit.Zero -> ()
      | Bit.One -> base := !base lor (1 lsl !i)
      | Bit.X -> free := !i :: !free);
      incr i
    done;
    (!base, !free)

  let expand t (base, free) =
    if List.length free > 10 then List.init t.words Fun.id
    else
      List.fold_left
        (fun acc bit -> List.concat_map (fun w -> [ w; w lor (1 lsl bit) ]) acc)
        [ base ] free

  let read t addr =
    match expand t (index_pattern t addr) with
    | [] -> assert false
    | w :: ws ->
      List.fold_left (fun acc w -> Bvec.merge acc (read_word t w)) (read_word t w) ws

  let write t ~addr ~(data : Bvec.t) ~(mask : Bvec.t) ~en =
    if not (Bit.equal en Bit.Zero) then begin
      let base, free = index_pattern t addr in
      let ws = expand t (base, free) in
      let certain = Bit.equal en Bit.One && free = [] in
      List.iter
        (fun w ->
          for i = 0 to t.width - 1 do
            let old = get t w i in
            let updated =
              match mask.(i) with
              | Bit.Zero -> old
              | Bit.One -> data.(i)
              | Bit.X -> Bit.merge old data.(i)
            in
            put t w i (if certain then updated else Bit.merge old updated)
          done)
        ws
    end

  let snapshot t = Bytes.copy t.store
  let restore t s = Bytes.blit s 0 t.store 0 (Bytes.length s)

  let merge_snapshot a b =
    Bytes.init (Bytes.length a) (fun i ->
        Char.chr
          (Bit.to_int
             (Bit.merge
                (Bit.of_int_exn (Char.code (Bytes.get a i)))
                (Bit.of_int_exn (Char.code (Bytes.get b i))))))

  let for_all2 f a b =
    let ok = ref true in
    Bytes.iteri
      (fun i x -> if not (f (Char.code x) (Char.code (Bytes.get b i))) then ok := false)
      a;
    !ok

  let subsumes ~general ~specific =
    for_all2 (fun g s -> g = Bit.code_x || g = s) general specific

  let consistent_snapshots a b =
    for_all2 (fun x y -> x = y || x = Bit.code_x || y = Bit.code_x) a b
end

type mem_op =
  | Load_int of int * int
  | Write_masked_int of int * int * int
  | Set_x_range of int * int
  | Write of Bvec.t * Bvec.t * Bvec.t * Bit.t
  | Read of Bvec.t
  | Snapshot
  | Restore of int
  | Merge of int * int
  | Subsumes of int * int
  | Consistent of int * int

let pp_mem_op = function
  | Load_int (w, n) -> Printf.sprintf "load_int %d %#x" w n
  | Write_masked_int (w, d, m) -> Printf.sprintf "write_masked_int %d %#x %#x" w d m
  | Set_x_range (lo, hi) -> Printf.sprintf "set_x_range %d..%d" lo hi
  | Write (a, d, m, e) ->
    Printf.sprintf "write addr=%s data=%s mask=%s en=%c" (Bvec.to_string a)
      (Bvec.to_string d) (Bvec.to_string m) (Bit.to_char e)
  | Read a -> "read " ^ Bvec.to_string a
  | Snapshot -> "snapshot"
  | Restore i -> Printf.sprintf "restore #%d" i
  | Merge (i, j) -> Printf.sprintf "merge #%d #%d" i j
  | Subsumes (i, j) -> Printf.sprintf "subsumes #%d #%d" i j
  | Consistent (i, j) -> Printf.sprintf "consistent #%d #%d" i j

(* Geometries: small ones where random ops collide often, and 2048- and
   4096-word ones where an all-X address exceeds 10 free index bits (on
   4096 words that selects twice the words the X bits could reach). *)
let gen_mem_case =
  QCheck.Gen.(
    let* idx_bits, width =
      frequencyl
        [ (4, (2, 8)); (2, (3, 8)); (1, (4, 16)); (1, (6, 32)); (1, (11, 32));
          (1, (12, 8)) ]
    in
    let words = 1 lsl idx_bits in
    let word = int_bound (words + 3) in
    let value = map (fun n -> n land ((1 lsl width) - 1)) int in
    let tern n =
      let* px = oneofl [ 0; 1; 5; 9 ] in
      list_size (return n)
        (let* r = int_bound 9 in
         if r < px then return Bit.X else map Bit.of_bool bool)
      |> map Array.of_list
    in
    let addr =
      frequency
        [ (4, let* n = int_range (max 0 (idx_bits - 1)) (idx_bits + 2) in tern n);
          (1, return (Bvec.all_x idx_bits)) ]
    in
    let slot = int_bound 3 in
    let op =
      frequency
        [ (2, map2 (fun w n -> Load_int (w, n)) word value);
          (1, map3 (fun w d m -> Write_masked_int (w, d, m)) word value value);
          (1, map2 (fun lo len -> Set_x_range (lo, lo + len)) word (int_bound 3));
          (4, let* a = addr and* d = tern width and* m = tern width
              and* e = oneofl [ Bit.Zero; Bit.One; Bit.One; Bit.X ] in
              return (Write (a, d, m, e)));
          (3, map (fun a -> Read a) addr);
          (3, return Snapshot);
          (1, map (fun i -> Restore i) slot);
          (1, map2 (fun i j -> Merge (i, j)) slot slot);
          (2, map2 (fun i j -> Subsumes (i, j)) slot slot);
          (2, map2 (fun i j -> Consistent (i, j)) slot slot) ]
    in
    let* ops = list_size (int_range 1 40) op in
    return (words, width, ops))

(* Run [ops] on the packed memory and the oracle side by side; [Error]
   names the first op after which a word, a read or a boolean differs.
   Snapshot-taking ops push onto a stack that [slot] indices address
   from the top (modulo its depth; skipped while it is empty). *)
let mem_differential (words, width, ops) =
  let m = Memory.create ~words ~width ~init:Bit.Zero in
  let o = Oracle.create ~words ~width in
  let snaps = ref [||] in
  let slot i =
    let n = Array.length !snaps in
    !snaps.(n - 1 - (i mod n))
  in
  let push s = snaps := Array.append !snaps [| s |] in
  let with_slots f = if Array.length !snaps > 0 then f () else true in
  let same_words () =
    List.for_all
      (fun w ->
        Bvec.equal (Memory.read_word m w) (Oracle.read_word o w)
        && Memory.read_word_int m w = Bvec.to_int (Oracle.read_word o w))
      (List.init words Fun.id)
  in
  (* [step op] is false when a read or boolean differs; the stored
     words are compared after every op that can change them *)
  let step = function
    | Load_int (w, n) -> Memory.load_int m w n; Oracle.load_int o w n; true
    | Write_masked_int (w, data, mask) ->
      Memory.write_masked_int m w ~data ~mask;
      Oracle.write_masked_int o w ~data ~mask;
      true
    | Set_x_range (lo, hi) ->
      Memory.set_x_range m ~lo ~hi; Oracle.set_x_range o ~lo ~hi; true
    | Write (addr, data, mask, en) ->
      Memory.write m ~addr ~data ~mask ~en;
      Oracle.write o ~addr ~data ~mask ~en;
      true
    | Read addr -> Bvec.equal (Memory.read m addr) (Oracle.read o addr)
    | Snapshot -> push (Memory.snapshot m, Oracle.snapshot o); true
    | Restore i ->
      with_slots (fun () ->
          let s, os = slot i in
          Memory.restore m s; Oracle.restore o os; true)
    | Merge (i, j) ->
      with_slots (fun () ->
          let (a, oa), (b, ob) = (slot i, slot j) in
          let s = Memory.merge_snapshot a b and os = Oracle.merge_snapshot oa ob in
          push (s, os);
          Memory.equal_snapshot s a = Bytes.equal os oa)
    | Subsumes (i, j) ->
      with_slots (fun () ->
          let (a, oa), (b, ob) = (slot i, slot j) in
          Memory.subsumes ~general:a ~specific:b
          = Oracle.subsumes ~general:oa ~specific:ob)
    | Consistent (i, j) ->
      with_slots (fun () ->
          let (a, oa), (b, ob) = (slot i, slot j) in
          Memory.consistent_snapshots a b = Oracle.consistent_snapshots oa ob)
  in
  let rec go = function
    | [] -> Ok ()
    | op :: rest ->
      let mutates =
        match op with
        | Load_int _ | Write_masked_int _ | Set_x_range _ | Write _ | Restore _ -> true
        | Read _ | Snapshot | Merge _ | Subsumes _ | Consistent _ -> false
      in
      if step op && ((not mutates) || same_words ()) then go rest
      else Error (pp_mem_op op)
  in
  go ops

let test_mem_differential =
  QCheck.Test.make ~name:"packed memory matches the byte-per-bit oracle"
    ~count:500
    (QCheck.make
       ~print:(fun (words, width, ops) ->
         Printf.sprintf "%d x %d: %s" words width
           (String.concat "; " (List.map pp_mem_op ops)))
       gen_mem_case)
    (fun case ->
      match mem_differential case with
      | Ok () -> true
      | Error op -> QCheck.Test.fail_reportf "differs after %s" op)

(* ---- VCD writer ---- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_vcd_header () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  let buf = Buffer.create 256 in
  let _ = Vcd.create buf eng ~signals:[ "en"; "q" ] in
  let hdr = Buffer.contents buf in
  Alcotest.(check bool) "timescale" true (contains ~sub:"$timescale" hdr);
  Alcotest.(check bool) "scope" true
    (contains ~sub:"$scope module bespoke $end" hdr);
  Alcotest.(check bool) "en is 1 bit" true
    (contains ~sub:"$var wire 1 ! en $end" hdr);
  Alcotest.(check bool) "q is 4 bits" true
    (contains ~sub:"$var wire 4 \" q $end" hdr);
  Alcotest.(check bool) "enddefinitions" true
    (contains ~sub:"$enddefinitions $end" hdr)

(* A design with more named signals than there are single-character
   VCD identifiers (94): every $var must still get a unique code. *)
let test_vcd_codes_unique () =
  let n = 100 in
  let b = Rtl.create_builder () in
  let first = Rtl.input b "s0" 1 in
  for i = 1 to n - 1 do
    ignore (Rtl.input b (Printf.sprintf "s%d" i) 1)
  done;
  Rtl.output b "y" first;
  let eng = Engine.create (Rtl.synthesize b) in
  Engine.reset eng;
  let buf = Buffer.create 4096 in
  let _ =
    Vcd.create buf eng ~signals:(List.init n (fun i -> Printf.sprintf "s%d" i))
  in
  let codes =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "$var"; "wire"; _w; code; _name; "$end" ] -> Some code
        | _ -> None)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one $var per signal" n (List.length codes);
  Alcotest.(check int) "all codes distinct" n
    (List.length (List.sort_uniq String.compare codes));
  Alcotest.(check bool) "codes past 94 are multi-character" true
    (List.exists (fun c -> String.length c > 1) codes)

let test_vcd_x_values () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_x eng "en";
  Engine.eval eng;
  let buf = Buffer.create 256 in
  let vcd = Vcd.create buf eng ~signals:[ "en"; "q" ] in
  Vcd.sample vcd ~time:0;
  (* en is unknown: its scalar dump must use the VCD 'x' value *)
  Alcotest.(check bool) "x dumped" true
    (contains ~sub:"\nx!\n" (Buffer.contents buf))

let test_vcd_change_only () =
  let eng = Engine.create (counter_net ()) in
  Engine.reset eng;
  Engine.set_input_int eng "en" 0;
  Engine.eval eng;
  let buf = Buffer.create 256 in
  let vcd = Vcd.create buf eng ~signals:[ "en"; "q" ] in
  Vcd.sample vcd ~time:0;
  Engine.step eng;
  (* enable held low: nothing changed, so no #1 timestamp block *)
  Vcd.sample vcd ~time:1;
  Engine.set_input_int eng "en" 1;
  Engine.eval eng;
  Engine.step eng;
  Vcd.sample vcd ~time:2;
  Vcd.finish vcd ~time:3;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "initial dump" true (contains ~sub:"#0\n" s);
  Alcotest.(check bool) "no block for unchanged cycle" false
    (contains ~sub:"#1\n" s);
  Alcotest.(check bool) "changed cycle dumped" true (contains ~sub:"#2\n" s);
  Alcotest.(check bool) "final timestamp" true (contains ~sub:"#3\n" s)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
          Alcotest.test_case "x marks possibly-toggled" `Quick
            test_possibly_toggled_x;
          Alcotest.test_case "held is untoggled" `Quick test_held_means_untoggled;
          Alcotest.test_case "dff state roundtrip" `Quick test_dff_state_roundtrip;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "byte mask" `Quick test_mem_byte_mask;
          Alcotest.test_case "x enable merges" `Quick test_mem_x_enable_merges;
          Alcotest.test_case "x addr read" `Quick test_mem_x_addr_read;
          Alcotest.test_case "x addr write" `Quick test_mem_x_addr_write;
          Alcotest.test_case "snapshots" `Quick test_mem_snapshots;
          Alcotest.test_case "set x range" `Quick test_mem_set_x_range;
          qt test_mem_model;
          qt test_mem_conservative_write;
          Alcotest.test_case "width guard" `Quick test_mem_width_guard;
          qt test_mem_differential;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "header well-formed" `Quick test_vcd_header;
          Alcotest.test_case "identifier codes unique past 94" `Quick
            test_vcd_codes_unique;
          Alcotest.test_case "x values dumped" `Quick test_vcd_x_values;
          Alcotest.test_case "change-only emission" `Quick test_vcd_change_only;
        ] );
    ]
