type entry = {
  name : string;
  group : string;
  gates_original : int;
  gates_cut : int;
  gates_bespoke : int;
  area_original : float;
  area_bespoke : float;
  leak_original : float;
  leak_bespoke : float;
  critical_ps_original : float;
  critical_ps_bespoke : float;
  vmin : float;
  paths : int;
  merges : int;
  prunes : int;
  escapes : int;
  cycles : int;
  cut_reasons : (string * int) list;
  modules : Attribution.row list;
}

let schema = "bespoke-report/v1"

module J = Bespoke_obs.Obs.Json

let pct ~original ~bespoke =
  if original = 0.0 then 0.0 else 100.0 *. (1.0 -. (bespoke /. original))

let savings_obj ~original ~bespoke =
  J.obj
    [
      ("original", J.num original);
      ("bespoke", J.num bespoke);
      ("saved_pct", J.num (pct ~original ~bespoke));
    ]

let module_json (r : Attribution.row) =
  J.obj
    [
      ("module", J.str r.Attribution.module_name);
      ("gates_original", J.int r.Attribution.gates_original);
      ("gates_bespoke", J.int r.Attribution.gates_bespoke);
      ("area_original_um2", J.num r.Attribution.area_original);
      ("area_bespoke_um2", J.num r.Attribution.area_bespoke);
      ("leakage_original_nw", J.num r.Attribution.leak_original);
      ("leakage_bespoke_nw", J.num r.Attribution.leak_bespoke);
    ]

let entry_json e =
  J.obj
    [
      ("name", J.str e.name);
      ("group", J.str e.group);
      ( "gates",
        J.obj
          [
            ("original", J.int e.gates_original);
            ("cut", J.int e.gates_cut);
            ("bespoke", J.int e.gates_bespoke);
            ( "saved_pct",
              J.num
                (pct
                   ~original:(float_of_int e.gates_original)
                   ~bespoke:(float_of_int e.gates_bespoke)) );
          ] );
      ( "area_um2",
        savings_obj ~original:e.area_original ~bespoke:e.area_bespoke );
      ( "leakage_nw",
        savings_obj ~original:e.leak_original ~bespoke:e.leak_bespoke );
      ( "timing",
        J.obj
          [
            ("critical_ps_original", J.num e.critical_ps_original);
            ("critical_ps_bespoke", J.num e.critical_ps_bespoke);
            ( "slack_pct",
              J.num
                (pct ~original:e.critical_ps_original
                   ~bespoke:e.critical_ps_bespoke) );
            ("vmin_v", J.num e.vmin);
          ] );
      ( "analysis",
        J.obj
          [
            ("paths", J.int e.paths);
            ("merges", J.int e.merges);
            ("prunes", J.int e.prunes);
            ("escapes", J.int e.escapes);
            ("cycles", J.int e.cycles);
          ] );
      ( "cut_reasons",
        J.obj (List.map (fun (k, v) -> (k, J.int v)) e.cut_reasons) );
      ("modules", J.arr (List.map module_json e.modules));
    ]

let to_json entries =
  J.obj
    [
      ("schema", J.str schema);
      ("generator", J.str "bespoke_cli report");
      ("benchmarks", J.arr (List.map entry_json entries));
    ]
  ^ "\n"

let analysis_to_json ~name ~paths ~merges ~prunes ~escapes ~cycles ~modules =
  J.obj
    [
      ("schema", J.str schema);
      ("generator", J.str "bespoke_cli analyze");
      ("benchmark", J.str name);
      ( "analysis",
        J.obj
          [
            ("paths", J.int paths);
            ("merges", J.int merges);
            ("prunes", J.int prunes);
            ("escapes", J.int escapes);
            ("cycles", J.int cycles);
          ] );
      ( "modules",
        J.arr
          (List.map
             (fun (m, active, total) ->
               J.obj
                 [
                   ("module", J.str m);
                   ("exercisable", J.int active);
                   ("total", J.int total);
                 ])
             modules) );
    ]
  ^ "\n"

let pp_text fmt entries =
  List.iter
    (fun e ->
      Format.fprintf fmt "benchmark %s (%s)@." e.name e.group;
      Format.fprintf fmt
        "  gates   %6d -> %6d (%d cut, %.1f%% saved)@." e.gates_original
        e.gates_bespoke e.gates_cut
        (pct
           ~original:(float_of_int e.gates_original)
           ~bespoke:(float_of_int e.gates_bespoke));
      Format.fprintf fmt "  area    %8.0f -> %8.0f um2 (%.1f%% saved)@."
        e.area_original e.area_bespoke
        (pct ~original:e.area_original ~bespoke:e.area_bespoke);
      Format.fprintf fmt "  leakage %8.1f -> %8.1f nW (%.1f%% saved)@."
        e.leak_original e.leak_bespoke
        (pct ~original:e.leak_original ~bespoke:e.leak_bespoke);
      Format.fprintf fmt
        "  timing  %.0f -> %.0f ps critical (%.1f%% slack), Vmin %.2f V@."
        e.critical_ps_original e.critical_ps_bespoke
        (pct ~original:e.critical_ps_original ~bespoke:e.critical_ps_bespoke)
        e.vmin;
      Format.fprintf fmt
        "  analysis: %d paths, %d merges, %d prunes, %d escapes, %d cycles@."
        e.paths e.merges e.prunes e.escapes e.cycles;
      Format.fprintf fmt "  cut reasons: %s@."
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s %d" k v)
              e.cut_reasons));
      Attribution.pp fmt e.modules;
      Format.fprintf fmt "@.")
    entries
