type t = Bit.t array

let create n b = Array.make n b
let width = Array.length
let equal a b = width a = width b && Array.for_all2 Bit.equal a b
let get (v : t) i = v.(i)
let set (v : t) i b = v.(i) <- b

let of_int ~width:w n =
  Array.init w (fun i -> Bit.of_bool ((n lsr i) land 1 = 1))

let to_int v =
  let rec go i acc =
    if i >= width v then Some acc
    else
      match v.(i) with
      | Bit.Zero -> go (i + 1) acc
      | Bit.One -> go (i + 1) (acc lor (1 lsl i))
      | Bit.X -> None
  in
  go 0 0

let to_int_exn v =
  match to_int v with
  | Some n -> n
  | None -> invalid_arg "Bvec.to_int_exn: contains X"

let to_signed_int v =
  match to_int v with
  | None -> None
  | Some n ->
    let w = width v in
    if w > 0 && n land (1 lsl (w - 1)) <> 0 then Some (n - (1 lsl w))
    else Some n

let is_known v = Array.for_all Bit.is_known v
let all_x n = create n Bit.X

let of_string s =
  let n = String.length s in
  Array.init n (fun i -> Bit.of_char s.[n - 1 - i])

let to_string v =
  String.init (width v) (fun i -> Bit.to_char v.(width v - 1 - i))

let pp fmt v = Format.pp_print_string fmt (to_string v)

let merge a b =
  if width a <> width b then invalid_arg "Bvec.merge: width mismatch";
  Array.map2 Bit.merge a b

let subsumes ~general ~specific =
  width general = width specific
  && Array.for_all2 Bit.subsumes general specific

let count_x v =
  Array.fold_left (fun acc b -> if Bit.is_known b then acc else acc + 1) 0 v

let concretizations v =
  let rec go i acc =
    if i >= width v then acc
    else
      match v.(i) with
      | Bit.Zero | Bit.One -> go (i + 1) acc
      | Bit.X ->
        let fill b u =
          let u = Array.copy u in
          u.(i) <- b;
          u
        in
        go (i + 1)
          (List.concat_map (fun u -> [ fill Bit.Zero u; fill Bit.One u ]) acc)
  in
  go 0 [ Array.copy v ]

let lnot v = Array.map Bit.lnot v

let map2 name f a b =
  if width a <> width b then invalid_arg ("Bvec." ^ name ^ ": width mismatch");
  Array.map2 f a b

let land_ a b = map2 "land_" Bit.land_ a b
let lor_ a b = map2 "lor_" Bit.lor_ a b
let lxor_ a b = map2 "lxor_" Bit.lxor_ a b

let add a b =
  if width a <> width b then invalid_arg "Bvec.add: width mismatch";
  let out = create (width a) Bit.X in
  let carry = ref Bit.Zero in
  for i = 0 to width a - 1 do
    let x = a.(i) and y = b.(i) and c = !carry in
    out.(i) <- Bit.lxor_ (Bit.lxor_ x y) c;
    carry := Bit.lor_ (Bit.land_ x y) (Bit.land_ c (Bit.lor_ x y))
  done;
  out
