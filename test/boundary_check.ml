(* Dependency-boundary check: the core-agnostic flow layers —
   lib/core, lib/analysis, lib/verify, lib/guard — must depend on
   {!Bespoke_coreapi.Coredef} alone, never on a concrete core.  Any
   [Bespoke_cpu.]/[Bespoke_isa.] reference in their sources, or a
   [bespoke_cpu]/[bespoke_isa] entry in their dune library lists,
   fails the build: that is how a second core stays a drop-in and a
   third one becomes possible.

   The same pass enforces one JSON string escaper: a [\u]-escape
   format ([u%04x]) anywhere in lib/, bin/ or bench/main.ml outside
   lib/obs/obs.ml is a private escaper, and fails the build too —
   every artifact encodes strings through [Obs.Json.str].  Likewise a
   hand-formatted JSON key — an escaped quote, a key, an escaped quote
   and a colon inside a string literal — in lib/, bin/ or bench/main.ml
   outside lib/obs: every artifact builds its objects with
   [Obs.Json.obj].

   And engine choice stays in lib/core and lib/sim: bin/ and the
   layers above lib/core (campaign, verify, guard) may not name the
   packed engine or the packed runner — each entry point runs the
   engine its library picks.  The reference sweep the compiled engine
   is tested against lives in the test-only [bespoke_oracle] library:
   any [Bespoke_oracle] reference in a source under lib/ or bin/, or a
   [bespoke_oracle] entry in a dune file there, fails the build, so
   the product ships one scalar engine.

   And tailoring has one home: bin/, bench/main.ml and the consumers
   of a tailored design (campaign, verify, guard) may not call the cut
   themselves — they take the record of [Runner.tailor_cached], so
   the stages that consume one benchmark's design share one cut.

   And exploration has one caller: outside lib/analysis, only
   lib/core/runner.ml may call [Activity.analyze] in lib/, bin/ or
   bench/main.ml — everything else takes the (cached) report, and
   verification replays its recorded schedule instead of exploring
   again.

   And analysis settings have one home: outside lib/analysis, only
   lib/core/runner.ml may name [Activity.default_config] in lib/, bin/
   or bench/main.ml — every analysis takes its config from
   [Runner.resolve_analysis_config], so no caller runs the exploration
   under settings of its own.

   And benchmark inputs have one home: outside lib/core/runner.ml
   (and the benchmark definitions in lib/programs and lib/rv32), no
   file in lib/, bin/ or bench/main.ml reads a benchmark's
   [.gen_inputs] or [.irq_pulses] — every run takes its RAM words,
   GPIO value and IRQ schedule from [Runner.stimulus], so no path can
   drive a different interrupt schedule.  Building a record (the
   CLI's raw-program loader) names the fields without reading them. *)

let layers = [ "core"; "analysis"; "verify"; "guard" ]
let forbidden_src = [ "Bespoke_cpu."; "Bespoke_isa." ]
let forbidden_dep = [ "bespoke_cpu"; "bespoke_isa" ]
let engine_free = [ "bin"; "lib/campaign"; "lib/verify"; "lib/guard" ]

let engine_needles = [ "Engine64"; "run_gate_packed" ]
let oracle_src = [ "Bespoke_oracle" ]
let oracle_dep = [ "bespoke_oracle" ]

let tailor_free =
  [ "bin"; "lib/campaign"; "lib/verify"; "lib/guard"; "bench/main.ml" ]

let tailor_needles = [ "Cut.tailor_explained" ]
let analyze_needles = [ "Activity.analyze" ]
let config_needles = [ "Activity.default_config" ]

(* split so this file never matches its own needles *)
let stimulus_needles = [ "." ^ "gen_inputs"; "." ^ "irq_pulses" ]

let root =
  if Sys.file_exists "lib" && Sys.is_directory "lib" then "." else ".."

let lib_root = Filename.concat root "lib"

(* split so this file never matches its own needle *)
let escaper_needles = [ "u%" ^ "04x"; "u%" ^ "04X" ]
let escaper_home = Filename.concat lib_root (Filename.concat "obs" "obs.ml")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let violations = ref []

(* Does [line] hold an escaped quote, a key, an escaped quote and a
   colon (blanks allowed before the colon)? *)
let has_json_key line =
  let n = String.length line in
  let is_key = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let quote i = i + 1 < n && line.[i] = '\\' && line.[i + 1] = '"' in
  let rec skip p i = if i < n && p line.[i] then skip p (i + 1) else i in
  let key_at i =
    let j = skip is_key (i + 2) in
    j > i + 2 && quote j
    &&
    let k = skip (( = ) ' ') (j + 2) in
    k < n && line.[k] = ':'
  in
  let rec go i = i < n && ((quote i && key_at i) || go (i + 1)) in
  go 0

let scan_json_keys path =
  String.split_on_char '\n' (read_file path)
  |> List.iteri (fun i line ->
         if has_json_key line then
           violations :=
             Printf.sprintf "%s:%d writes a JSON key by hand" path (i + 1)
             :: !violations)

let scan_file ~patterns path =
  let body = read_file path in
  List.iter
    (fun needle ->
      String.split_on_char '\n' body
      |> List.iteri (fun i line ->
             if contains ~needle line then
               violations :=
                 Printf.sprintf "%s:%d references %s" path (i + 1) needle
                 :: !violations))
    patterns

let rec files_where keep path =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort compare
    |> List.concat_map (fun f -> files_where keep (Filename.concat path f))
  else if keep path then [ path ]
  else []

let ml_files =
  files_where (fun p ->
      Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli")

let dune_files = files_where (fun p -> Filename.basename p = "dune")

let () =
  let files = ref 0 in
  let obs_home = Filename.concat lib_root "obs" ^ Filename.dir_sep in
  List.iter
    (fun path ->
      if path <> escaper_home then begin
        incr files;
        scan_file ~patterns:escaper_needles path
      end;
      if not (String.starts_with ~prefix:obs_home path) then scan_json_keys path)
    (ml_files lib_root
    @ ml_files (Filename.concat root "bin")
    @ [ Filename.concat root (Filename.concat "bench" "main.ml") ]);
  (* already counted: every engine-free file lies under lib/ or bin/ *)
  List.iter
    (fun dir ->
      let dir = Filename.concat root dir in
      List.iter (scan_file ~patterns:oracle_src) (ml_files dir);
      List.iter
        (fun path ->
          incr files;
          scan_file ~patterns:oracle_dep path)
        (dune_files dir))
    [ "lib"; "bin" ];
  List.iter
    (fun dir ->
      List.iter (scan_file ~patterns:engine_needles)
        (ml_files (Filename.concat root dir)))
    engine_free;
  List.iter
    (fun path ->
      List.iter (scan_file ~patterns:tailor_needles)
        (ml_files (Filename.concat root path)))
    tailor_free;
  (let runner = Filename.concat lib_root (Filename.concat "core" "runner.ml") in
   let under dir path =
     let home = Filename.concat lib_root dir ^ Filename.dir_sep in
     String.length path > String.length home
     && String.sub path 0 (String.length home) = home
   in
   let flow_files =
     ml_files lib_root
     @ ml_files (Filename.concat root "bin")
     @ [ Filename.concat root (Filename.concat "bench" "main.ml") ]
   in
   List.iter
     (fun path ->
       if path <> runner then begin
         if not (under "analysis" path) then
           scan_file ~patterns:(analyze_needles @ config_needles) path;
         if not (under "programs" path || under "rv32" path) then
           scan_file ~patterns:stimulus_needles path
       end)
     flow_files);
  List.iter
    (fun layer ->
      let dir = Filename.concat lib_root layer in
      if not (Sys.file_exists dir) then (
        Printf.eprintf "boundary-check: missing layer directory %s\n" dir;
        exit 1);
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
          then begin
            incr files;
            scan_file ~patterns:forbidden_src path
          end
          else if f = "dune" then begin
            incr files;
            scan_file ~patterns:forbidden_dep path
          end)
        (Sys.readdir dir))
    layers;
  match !violations with
  | [] ->
    Printf.printf
      "boundary-check: %d file(s) checked: lib/{%s} are core-agnostic (no \
       Bespoke_cpu/Bespoke_isa references), lib/obs/obs.ml holds the only \
       JSON string escaper, lib/obs alone writes JSON keys, lib and bin \
       link no test oracle, %s pick no engine, %s leave the cut to \
       Runner.tailor_cached, and only lib/core/runner.ml calls \
       Activity.analyze or names Activity.default_config outside \
       lib/analysis or reads benchmark inputs outside lib/programs and \
       lib/rv32\n"
      !files
      (String.concat "," layers)
      (String.concat ", " engine_free)
      (String.concat ", " tailor_free)
  | vs ->
    List.iter (fun v -> Printf.eprintf "boundary-check: %s\n" v)
      (List.rev vs);
    Printf.eprintf
      "boundary-check: the flow layers must target Coredef, not a \
       concrete core, JSON strings and objects must go through Obs.Json, \
       the test oracle stays out of lib and bin, engine choice belongs to \
       lib/core and lib/sim, tailoring to Runner.tailor_cached, and \
       exploration, analysis settings and benchmark inputs to Runner\n";
    exit 1
