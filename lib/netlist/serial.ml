module Bit = Bespoke_logic.Bit

exception Parse_error of { line : int; message : string }

let err line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let op_token (op : Gate.op) =
  match op with
  | Gate.Const Bit.Zero -> "const0"
  | Gate.Const Bit.One -> "const1"
  | Gate.Const Bit.X -> "constx"
  | Gate.Input -> "input"
  | Gate.Buf -> "buf"
  | Gate.Not -> "not"
  | Gate.And -> "and"
  | Gate.Or -> "or"
  | Gate.Nand -> "nand"
  | Gate.Nor -> "nor"
  | Gate.Xor -> "xor"
  | Gate.Xnor -> "xnor"
  | Gate.Mux -> "mux"
  | Gate.Dff Bit.Zero -> "dff0"
  | Gate.Dff Bit.One -> "dff1"
  | Gate.Dff Bit.X -> "dffx"

let op_of_token line = function
  | "const0" -> Gate.Const Bit.Zero
  | "const1" -> Gate.Const Bit.One
  | "constx" -> Gate.Const Bit.X
  | "input" -> Gate.Input
  | "buf" -> Gate.Buf
  | "not" -> Gate.Not
  | "and" -> Gate.And
  | "or" -> Gate.Or
  | "nand" -> Gate.Nand
  | "nor" -> Gate.Nor
  | "xor" -> Gate.Xor
  | "xnor" -> Gate.Xnor
  | "mux" -> Gate.Mux
  | "dff0" -> Gate.Dff Bit.Zero
  | "dff1" -> Gate.Dff Bit.One
  | "dffx" -> Gate.Dff Bit.X
  | t -> err line "unknown gate op %S" t

let to_string (n : Netlist.t) =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "bespoke-netlist 1\n";
  add "gates %d\n" (Netlist.gate_count n);
  Array.iter
    (fun (g : Gate.t) ->
      add "g %s %d %s" (op_token g.Gate.op) g.Gate.drive
        (if g.Gate.module_path = "" then "-" else g.Gate.module_path);
      Array.iter (fun f -> add " %d" f) g.Gate.fanin;
      add "\n")
    n.Netlist.gates;
  let port kind (name, ids) =
    add "%s %s" kind name;
    Array.iter (fun id -> add " %d" id) ids;
    add "\n"
  in
  List.iter (port "input") n.Netlist.input_ports;
  List.iter (port "output") n.Netlist.output_ports;
  List.iter (port "name") n.Netlist.names;
  add "end\n";
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let gates = ref [] in
  let inputs = ref [] in
  let outputs = ref [] in
  let names = ref [] in
  let expected = ref (-1) in
  let seen_header = ref false in
  let seen_end = ref false in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim raw in
      if line = "" || !seen_end then ()
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "bespoke-netlist"; "1" ] -> seen_header := true
        | "bespoke-netlist" :: v -> err lineno "unsupported version %s" (String.concat " " v)
        | [ "gates"; k ] -> (
          match int_of_string_opt k with
          | Some v -> expected := v
          | None -> err lineno "bad gate count %S" k)
        | "g" :: op :: drive :: path :: fanin ->
          if not !seen_header then err lineno "missing header";
          let op = op_of_token lineno op in
          let drive =
            match int_of_string_opt drive with
            | Some d -> d
            | None -> err lineno "bad drive %S" drive
          in
          let fanin =
            Array.of_list
              (List.map
                 (fun t ->
                   match int_of_string_opt t with
                   | Some v -> v
                   | None -> err lineno "bad fanin id %S" t)
                 fanin)
          in
          gates :=
            {
              Gate.op;
              fanin;
              module_path = (if path = "-" then "" else path);
              drive;
            }
            :: !gates
        | kind :: name :: ids
          when kind = "input" || kind = "output" || kind = "name" ->
          let ids =
            Array.of_list
              (List.map
                 (fun t ->
                   match int_of_string_opt t with
                   | Some v -> v
                   | None -> err lineno "bad gate id %S" t)
                 ids)
          in
          let dst =
            if kind = "input" then inputs
            else if kind = "output" then outputs
            else names
          in
          dst := (name, ids) :: !dst
        | [ "end" ] -> seen_end := true
        | tok :: _ -> err lineno "unexpected line starting with %S" tok
        | [] -> ())
    lines;
  if not !seen_end then err (List.length lines) "missing 'end'";
  let gate_arr = Array.of_list (List.rev !gates) in
  if !expected >= 0 && Array.length gate_arr <> !expected then
    err 0 "gate count mismatch: header says %d, found %d" !expected
      (Array.length gate_arr);
  let n =
    {
      Netlist.gates = gate_arr;
      input_ports = List.rev !inputs;
      output_ports = List.rev !outputs;
      names = List.rev !names;
    }
  in
  (try Netlist.validate n
   with Failure m -> err 0 "invalid netlist: %s" m);
  n

let save path n =
  let oc = open_out path in
  output_string oc (to_string n);
  close_out oc

let load path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string text

(* ---------------- gate sets ---------------- *)

let gate_set_to_string (set : bool array) =
  let n = Array.length set in
  let buf = Buffer.create ((n / 4) + 64) in
  Buffer.add_string buf (Printf.sprintf "bespoke-gate-set 1 %d\n" n);
  let nibbles = (n + 3) / 4 in
  for k = 0 to nibbles - 1 do
    let v = ref 0 in
    for j = 0 to 3 do
      let i = (4 * k) + j in
      if i < n && set.(i) then v := !v lor (1 lsl j)
    done;
    Buffer.add_char buf "0123456789abcdef".[!v];
    if k mod 64 = 63 then Buffer.add_char buf '\n'
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let gate_set_of_string text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ "bespoke-gate-set"; "1"; count ] -> (
      match int_of_string_opt count with
      | None -> err 1 "bad gate-set count %S" count
      | Some n ->
        let set = Array.make n false in
        let idx = ref 0 in
        List.iter
          (fun line ->
            String.iter
              (fun c ->
                let v =
                  match c with
                  | '0' .. '9' -> Char.code c - Char.code '0'
                  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                  | _ -> err 0 "bad hex digit %C" c
                in
                for j = 0 to 3 do
                  let i = (4 * !idx) + j in
                  if i < n then set.(i) <- v land (1 lsl j) <> 0
                done;
                incr idx)
              (String.trim line))
          rest;
        if !idx < (n + 3) / 4 then err 0 "truncated gate set";
        set)
    | _ -> err 1 "bad gate-set header")
  | [] -> err 1 "empty gate set"

let save_gate_set path set =
  let oc = open_out path in
  output_string oc (gate_set_to_string set);
  close_out oc

let load_gate_set path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  gate_set_of_string text

(* Design identity for memoization caches (e.g. the compiled-simulation
   cache): a digest of the canonical serialization, so any change to a
   gate, port or name produces a different key while re-serialized
   copies of the same design share one.  It digests a compact binary
   encoding of the same information as [to_string], without the
   Printf formatting cost of the text. *)
let digest (n : Netlist.t) =
  let buf = Buffer.create (1 lsl 16) in
  let add_int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string buf s
  in
  add_int (Netlist.gate_count n);
  Array.iter
    (fun (g : Gate.t) ->
      add_str (op_token g.Gate.op);
      add_int g.Gate.drive;
      add_str g.Gate.module_path;
      add_int (Array.length g.Gate.fanin);
      Array.iter add_int g.Gate.fanin)
    n.Netlist.gates;
  let port (name, ids) =
    add_str name;
    add_int (Array.length ids);
    Array.iter add_int ids
  in
  List.iter port n.Netlist.input_ports;
  List.iter port n.Netlist.output_ports;
  List.iter port n.Netlist.names;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes buf))

(* Netlist values are never mutated after construction, so one digest
   per physical value serves every later [hash] of it: each
   [Compile.create] (every gate-level run) hashes its design, which
   would otherwise encode and digest the whole design per run.
   Ephemerons let a dropped netlist's entry go with it. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Netlist.t

  let equal = ( == )
  let hash n = Hashtbl.hash (Netlist.gate_count n)
end)

let memo = Memo.create 16
let memo_mu = Mutex.create ()

let hash n =
  match Mutex.protect memo_mu (fun () -> Memo.find_opt memo n) with
  | Some h -> h
  | None ->
    let h = digest n in
    Mutex.protect memo_mu (fun () -> Memo.replace memo n h);
    h
