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
   every artifact encodes strings through [Obs.Json.str].

   And engine choice stays in lib/core and lib/sim: bin/ and the
   layers above lib/core (campaign, verify, guard) may not name an
   engine mode, the packed engine or the packed runner — each entry
   point runs the engine its library picks.

   And tailoring has one home: bin/, bench/main.ml and the consumers
   of a tailored design (campaign, verify, guard) may not call the cut
   themselves — they take the record of [Runner.tailor_cached], so
   the stages that consume one benchmark's design share one cut.

   And exploration has one caller: outside lib/analysis, only
   lib/core/runner.ml may call [Activity.analyze] in lib/, bin/ or
   bench/main.ml — everything else takes the (cached) report, and
   verification replays its recorded schedule instead of exploring
   again. *)

let layers = [ "core"; "analysis"; "verify"; "guard" ]
let forbidden_src = [ "Bespoke_cpu."; "Bespoke_isa." ]
let forbidden_dep = [ "bespoke_cpu"; "bespoke_isa" ]
let engine_free = [ "bin"; "lib/campaign"; "lib/verify"; "lib/guard" ]

let engine_needles =
  [ "Engine.Full"; "Engine.Compiled"; "Engine64"; "run_gate_packed" ]

let tailor_free =
  [ "bin"; "lib/campaign"; "lib/verify"; "lib/guard"; "bench/main.ml" ]

let tailor_needles = [ "Cut.tailor_explained" ]
let analyze_needles = [ "Activity.analyze" ]

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

let rec ml_files path =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort compare
    |> List.concat_map (fun f -> ml_files (Filename.concat path f))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then [ path ]
  else []

let () =
  let files = ref 0 in
  List.iter
    (fun path ->
      if path <> escaper_home then begin
        incr files;
        scan_file ~patterns:escaper_needles path
      end)
    (ml_files lib_root
    @ ml_files (Filename.concat root "bin")
    @ [ Filename.concat root (Filename.concat "bench" "main.ml") ]);
  (* already counted: every engine-free file lies under lib/ or bin/ *)
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
  (let analysis_home = Filename.concat lib_root "analysis"
   and runner = Filename.concat lib_root (Filename.concat "core" "runner.ml") in
   let in_analysis path =
     String.length path > String.length analysis_home
     && String.sub path 0 (String.length analysis_home + 1)
        = analysis_home ^ Filename.dir_sep
   in
   List.iter
     (fun path ->
       if path <> runner && not (in_analysis path) then
         scan_file ~patterns:analyze_needles path)
     (ml_files lib_root
     @ ml_files (Filename.concat root "bin")
     @ [ Filename.concat root (Filename.concat "bench" "main.ml") ]));
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
       JSON string escaper, %s pick no engine, %s leave the cut to \
       Runner.tailor_cached, and only lib/core/runner.ml calls \
       Activity.analyze outside lib/analysis\n"
      !files
      (String.concat "," layers)
      (String.concat ", " engine_free)
      (String.concat ", " tailor_free)
  | vs ->
    List.iter (fun v -> Printf.eprintf "boundary-check: %s\n" v)
      (List.rev vs);
    Printf.eprintf
      "boundary-check: the flow layers must target Coredef, not a \
       concrete core, JSON strings must go through Obs.Json.str, \
       engine choice belongs to lib/core and lib/sim, tailoring to \
       Runner.tailor_cached, and exploration to Runner\n";
    exit 1
