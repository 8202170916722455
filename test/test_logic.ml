module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec

let all_bits = [ Bit.Zero; Bit.One; Bit.X ]

let bit_testable = Alcotest.testable Bit.pp Bit.equal

let check_bit = Alcotest.check bit_testable

(* An operator's ternary extension is sound iff for every assignment of
   concrete values to X inputs, the concrete result is subsumed by the
   ternary result. *)
let soundness2 name top bop () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let t = top a b in
          List.iter
            (fun ca ->
              List.iter
                (fun cb ->
                  let concrete =
                    Bit.of_bool (bop (Bit.to_bool_exn ca) (Bit.to_bool_exn cb))
                  in
                  if not (Bit.subsumes t concrete) then
                    Alcotest.failf "%s(%c,%c)=%c not subsuming %c,%c->%c" name
                      (Bit.to_char a) (Bit.to_char b) (Bit.to_char t)
                      (Bit.to_char ca) (Bit.to_char cb) (Bit.to_char concrete))
                (Bit.concretizations b))
            (Bit.concretizations a))
        all_bits)
    all_bits

(* Exactness: if the ternary result is X there must exist two
   concretizations producing different results. *)
let exactness2 name top bop () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match top a b with
          | Bit.X ->
            let results =
              List.concat_map
                (fun ca ->
                  List.map
                    (fun cb ->
                      bop (Bit.to_bool_exn ca) (Bit.to_bool_exn cb))
                    (Bit.concretizations b))
                (Bit.concretizations a)
            in
            if List.for_all (fun r -> r = List.hd results) results then
              Alcotest.failf "%s(%c,%c) = X but all concretizations agree" name
                (Bit.to_char a) (Bit.to_char b)
          | Bit.Zero | Bit.One -> ())
        all_bits)
    all_bits

let ops2 =
  [
    ("and", Bit.land_, ( && ));
    ("or", Bit.lor_, ( || ));
    ("xor", Bit.lxor_, ( <> ));
    ("nand", Bit.lnand, fun a b -> not (a && b));
    ("nor", Bit.lnor, fun a b -> not (a || b));
    ("xnor", Bit.lxnor, ( = ));
  ]

let test_mux () =
  check_bit "mux 0" (Bit.mux Bit.Zero Bit.One Bit.Zero) Bit.One;
  check_bit "mux 1" (Bit.mux Bit.One Bit.One Bit.Zero) Bit.Zero;
  check_bit "mux x same" (Bit.mux Bit.X Bit.One Bit.One) Bit.One;
  check_bit "mux x diff" (Bit.mux Bit.X Bit.One Bit.Zero) Bit.X

let test_merge_subsumes () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let m = Bit.merge a b in
          Alcotest.(check bool)
            "merge subsumes left" true (Bit.subsumes m a);
          Alcotest.(check bool)
            "merge subsumes right" true (Bit.subsumes m b))
        all_bits)
    all_bits;
  Alcotest.(check bool) "x subsumes 0" true (Bit.subsumes Bit.X Bit.Zero);
  Alcotest.(check bool) "0 !subsumes x" false (Bit.subsumes Bit.Zero Bit.X)

let test_chars () =
  List.iter
    (fun b -> check_bit "char roundtrip" b (Bit.of_char (Bit.to_char b)))
    all_bits;
  Alcotest.check_raises "bad char" (Invalid_argument "Bit.of_char: q") (fun () ->
      ignore (Bit.of_char 'q'))

(* ---- Bvec ---- *)

let test_bvec_int_roundtrip () =
  List.iter
    (fun n ->
      let v = Bvec.of_int ~width:16 n in
      Alcotest.(check (option int)) "roundtrip" (Some (n land 0xffff))
        (Bvec.to_int v))
    [ 0; 1; 2; 0x7fff; 0x8000; 0xffff; 12345 ]

let test_bvec_signed () =
  Alcotest.(check (option int))
    "neg" (Some (-1))
    (Bvec.to_signed_int (Bvec.of_int ~width:16 0xffff));
  Alcotest.(check (option int))
    "pos" (Some 5)
    (Bvec.to_signed_int (Bvec.of_int ~width:16 5));
  Alcotest.(check (option int))
    "min" (Some (-32768))
    (Bvec.to_signed_int (Bvec.of_int ~width:16 0x8000))

let test_bvec_strings () =
  let v = Bvec.of_string "10x1" in
  Alcotest.(check string) "roundtrip" "10x1" (Bvec.to_string v);
  Alcotest.(check (option int)) "unknown" None (Bvec.to_int v)

let test_bvec_add_concrete =
  QCheck.Test.make ~name:"bvec add matches int add" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (a, b) ->
      let va = Bvec.of_int ~width:16 a and vb = Bvec.of_int ~width:16 b in
      Bvec.to_int (Bvec.add va vb) = Some ((a + b) land 0xffff))

let gen_tern_vec =
  QCheck.Gen.(
    list_size (return 16) (oneofl [ Bit.Zero; Bit.One; Bit.X ])
    |> map Array.of_list)

let arb_tern_vec =
  QCheck.make ~print:(fun v -> Bvec.to_string v) gen_tern_vec

let test_bvec_add_sound =
  QCheck.Test.make ~name:"ternary add subsumes concrete adds" ~count:200
    QCheck.(pair arb_tern_vec arb_tern_vec)
    (fun (a, b) ->
      QCheck.assume (Bvec.count_x a + Bvec.count_x b <= 6);
      let t = Bvec.add a b in
      List.for_all
        (fun ca ->
          List.for_all
            (fun cb ->
              let concrete =
                Bvec.of_int ~width:16
                  (Bvec.to_int_exn ca + Bvec.to_int_exn cb)
              in
              Bvec.subsumes ~general:t ~specific:concrete)
            (Bvec.concretizations b))
        (Bvec.concretizations a))

let test_bvec_merge_props =
  QCheck.Test.make ~name:"merge is lub-ish" ~count:300
    QCheck.(pair arb_tern_vec arb_tern_vec)
    (fun (a, b) ->
      let m = Bvec.merge a b in
      Bvec.subsumes ~general:m ~specific:a
      && Bvec.subsumes ~general:m ~specific:b)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_logic"
    [
      ( "bit",
        [
          Alcotest.test_case "mux" `Quick test_mux;
          Alcotest.test_case "merge/subsumes" `Quick test_merge_subsumes;
          Alcotest.test_case "char conversions" `Quick test_chars;
        ]
        @ List.concat_map
            (fun (name, top, bop) ->
              [
                Alcotest.test_case (name ^ " sound") `Quick
                  (soundness2 name top bop);
                Alcotest.test_case (name ^ " exact") `Quick
                  (exactness2 name top bop);
              ])
            ops2 );
      ( "bvec",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bvec_int_roundtrip;
          Alcotest.test_case "signed" `Quick test_bvec_signed;
          Alcotest.test_case "strings" `Quick test_bvec_strings;
          qt test_bvec_add_concrete;
          qt test_bvec_add_sound;
          qt test_bvec_merge_props;
        ] );
    ]
