(* Command-line driver for the bespoke-processor flow.

   bespoke_cli asm prog.s            assemble and list
   bespoke_cli run prog.s            run on the ISS and the gate-level core
   bespoke_cli analyze prog.s        input-independent gate activity analysis
   bespoke_cli tailor prog.s         full flow: analyze, cut, report, verify
   bespoke_cli report                savings report across the benchmark suite
   bespoke_cli verify                verification campaign: equivalence +
                                     fault injection + shrunk repros
   bespoke_cli bench-list            list the built-in benchmark programs

   Programs are assembly for the selected core (`--core msp430`, the
   default, or `--core rv32`; see lib/isa/asm.mli and lib/rv32/asm.ml
   for the dialects); `--bench NAME` uses a built-in benchmark of that
   core instead of a file. *)

open Cmdliner

module Asm = Bespoke_isa.Asm
module Coredef = Bespoke_coreapi.Coredef
module Cores = Bespoke_cores.Cores
module Netlist = Bespoke_netlist.Netlist
module Lockstep = Bespoke_coreapi.Lockstep
module Activity = Bespoke_analysis.Activity
module B = Bespoke_programs.Benchmark
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Usage = Bespoke_core.Usage
module Report = Bespoke_power.Report
module Sta = Bespoke_power.Sta
module Voltage = Bespoke_power.Voltage
module Obs = Bespoke_obs.Obs
module Gate = Bespoke_netlist.Gate
module Bit = Bespoke_logic.Bit
module Provenance = Bespoke_report.Provenance
module Attribution = Bespoke_report.Attribution
module Artifact = Bespoke_report.Artifact
module Verify = Bespoke_verify.Verify
module Campaign = Bespoke_campaign.Campaign
module Pool = Bespoke_core.Pool
module Flowcache = Bespoke_core.Flowcache
module Stats = Bespoke_obs.Stats
module Guard = Bespoke_guard.Guard
module Mutation = Bespoke_mutation.Mutation

let ( let* ) r f = Result.bind r f

(* ---- common arguments ---- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"PROG.S" ~doc:"Assembly source file.")

let bench_arg =
  Arg.(value & opt (some string) None
       & info [ "bench" ] ~docv:"NAME" ~doc:"Use a built-in benchmark instead of a file.")

let core_arg =
  Arg.(value
       & opt string Cores.default.Cores.core.Coredef.name
       & info [ "core" ] ~docv:"CORE"
           ~doc:(Printf.sprintf
                   "Target core: %s (default %s).  Every flow stage — \
                    assembly, analysis, tailoring, verification, guards — \
                    runs against this core's descriptor."
                   (String.concat ", " Cores.names)
                   Cores.default.Cores.core.Coredef.name))

let resolve_core name : (Cores.entry, string) result =
  match Cores.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown core %S; try: %s" name
         (String.concat ", " Cores.names))

let gpio_arg =
  Arg.(value & opt int 0 & info [ "gpio" ] ~docv:"N" ~doc:"GPIO input value for concrete runs.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input-generation seed for benchmarks.")

(* Parallelism: --jobs N beats the BESPOKE_JOBS env var, which beats
   the single-domain default. *)
let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Domains for parallel work (overrides the \
                 $(b,BESPOKE_JOBS) environment variable; default 1; \
                 capped at the machine's core count).")

let apply_jobs jobs = Option.iter Pool.set_default_jobs jobs

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit a machine-readable JSON document on stdout (schema \
                 $(b,bespoke-report/v1)); all human-readable output moves to \
                 stderr so stdout stays parseable.")

let load_program (entry : Cores.entry) file bench : (B.t, string) result =
  match bench, file with
  | Some name, _ -> (
    match Cores.benchmark entry name with
    | Some b -> Ok b
    | None ->
      Error
        (Printf.sprintf "unknown benchmark %S on core %s; try: %s" name
           entry.Cores.core.Coredef.name
           (String.concat ", "
              (List.map (fun b -> b.B.name) entry.Cores.benchmarks))))
  | None, Some path -> (
    try
      let ic = open_in path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok
        {
          B.name = Filename.basename path;
          description = path;
          group = B.Sensor;
          source = src;
          input_ranges = [];
          gen_inputs = (fun _ -> ([], 0));
          uses_irq = false;
          irq_pulses = (fun _ -> []);
          result_addrs =
            (* raw files have no declared result words outside the
               default core's convention *)
            (if entry.Cores.core.Coredef.name
                = Cores.default.Cores.core.Coredef.name
             then [ B.output_base ]
             else []);
        }
    with Sys_error m -> Error m)
  | None, None -> Error "provide a source file or --bench NAME"

(* Default benchmark suite of a core, for suite-wide subcommands
   (report, verify): the plain benchmarks — the RTOS kernel and SUBNEG
   characterization stay opt-in via --bench. *)
let suite (entry : Cores.entry) =
  if entry.Cores.core.Coredef.name = Cores.default.Cores.core.Coredef.name
  then B.all
  else entry.Cores.benchmarks

(* The program a subcommand works on: --core resolved, then the
   positional PROG.S or --bench NAME loaded for that core. *)
let program_of core_name file bench =
  let* entry = resolve_core core_name in
  let* b = load_program entry file bench in
  Ok (entry, b)

let program_arg = Term.(const program_of $ core_arg $ file_arg $ bench_arg)

(* The same for the suite-wide subcommands: the core's whole suite
   when no program is named.  [file] is [file_arg], or [const None]
   where the subcommand takes no source file. *)
let programs_arg file =
  let programs core_name file bench =
    match (file, bench) with
    | None, None ->
      let* entry = resolve_core core_name in
      Ok (entry, suite entry)
    | _ ->
      let* entry, b = program_of core_name file bench in
      Ok (entry, [ b ])
  in
  Term.(const programs $ core_arg $ file $ bench_arg)

let handle = function
  | Ok () -> `Ok ()
  | Error m -> `Error (false, m)

(* ---- observability (also enabled by the BESPOKE_TRACE env var) ---- *)

let obs_args =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Enable telemetry and write a Chrome-trace JSONL span log to \
                   $(docv) (one event per line; wrap in a JSON array, e.g. \
                   'jq -s .', to open in a trace viewer).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Enable telemetry and write a JSON metrics snapshot \
                   (counters, gauges, histograms) to $(docv).  With \
                   $(b,--metrics-interval) the file becomes a \
                   $(b,bespoke-metrics/v1) JSONL time series instead.")
  in
  let interval =
    Arg.(value & opt (some int) None
         & info [ "metrics-interval" ] ~docv:"MS"
             ~doc:"Enable telemetry and sample the metrics registry every \
                   $(docv) milliseconds into a $(b,bespoke-metrics/v1) JSONL \
                   time series (at $(b,--metrics-out), default \
                   $(b,bespoke_metrics.jsonl)).")
  in
  Term.(const (fun t m i -> (t, m, i)) $ trace $ metrics $ interval)

(* Run [f] with telemetry enabled if requested, then write the
   requested outputs and print the per-phase summary to stderr.
   [finish] is idempotent and registered at_exit as well as in the
   protect, so a crashed, interrupted (Sys.Break) or directly-exiting
   run still leaves its partial trace/metrics behind. *)
let with_obs (trace, metrics_out, interval) f =
  match interval with
  | Some ms when ms <= 0 ->
    (* the sampler itself clamps to 1 ms, but an explicit request for a
       zero or negative period is a typo worth stopping on *)
    Error (Printf.sprintf "--metrics-interval must be at least 1 ms (got %d)" ms)
  | _ ->
  if trace <> None || metrics_out <> None || interval <> None then Obs.enable ();
  (match interval with
  | Some ms ->
    let path = Option.value metrics_out ~default:"bespoke_metrics.jsonl" in
    Obs.Sampler.start ~path ~interval_ms:ms ()
  | None -> ());
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      if Obs.enabled () then begin
        if Obs.Sampler.running () then begin
          let p = Obs.Sampler.path () in
          Obs.Sampler.stop ();
          Option.iter
            (fun p -> Printf.eprintf "wrote metrics time series to %s\n" p)
            p
        end;
        Option.iter
          (fun path ->
            Obs.Trace.write_jsonl path;
            Printf.eprintf "wrote trace to %s\n" path)
          trace;
        (match (metrics_out, interval) with
        | Some path, None ->
          let oc = open_out path in
          output_string oc (Obs.Metrics.snapshot_json ());
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote metrics to %s\n" path
        | _ -> () (* the sampler owns the file when an interval is set *));
        match Stats.spans_of_events (Obs.Trace.events ()) with
        | [] -> ()
        | spans -> prerr_string (Stats.render_spans spans)
      end
    end
  in
  at_exit finish;
  Fun.protect ~finally:finish f

(* --cache-stats: dump the flow-cache registry to stderr at exit (even
   on failure — the counts explain what the run did or did not pay
   for). *)
let cache_stats_arg =
  Arg.(value & flag
       & info [ "cache-stats" ]
           ~doc:"Print per-flowcache hit/miss/eviction counts to stderr when \
                 the command finishes.")

let with_cache_stats enabled f =
  Fun.protect
    ~finally:(fun () ->
      if enabled then prerr_string (Flowcache.stats_table ()))
    f

let catching f =
  try f () with
  | Sys.Break -> Error "interrupted (partial telemetry artifacts flushed)"
  | Asm.Error { line; message } ->
    Error (Printf.sprintf "assembly error, line %d: %s" line message)
  | Bespoke_rv32.Asm.Error m -> Error ("assembly error: " ^ m)
  | Activity.Analysis_error m -> Error ("analysis error: " ^ m)
  | Runner.Mismatch m -> Error ("verification mismatch: " ^ m)
  | Pool.Task_errors errs ->
    Error
      (Printf.sprintf "%d parallel task(s) failed: %s" (List.length errs)
         (String.concat "; "
            (List.map
               (fun (i, e) ->
                 Printf.sprintf "task %d: %s" i
                   (match e with
                   | Failure m -> m
                   | e -> Printexc.to_string e))
               errs)))
  | Failure m -> Error m

(* ---- savings-report entry (shared by tailor --json and report) ---- *)

let group_name = function
  | B.Sensor -> "sensor"
  | B.Eembc -> "eembc"
  | B.Unit_test -> "unit-test"
  | B.Synthetic -> "synthetic"

let build_entry (b : B.t)
    { Runner.report; original = net; bespoke; stats; prov } =
  let sta0 = Sta.analyze net and sta1 = Sta.analyze bespoke in
  {
    Artifact.name = b.B.name;
    group = group_name b.B.group;
    gates_original = stats.Cut.original_gates;
    gates_cut = stats.Cut.cut_gates;
    gates_bespoke = stats.Cut.bespoke_gates;
    area_original = stats.Cut.original_area;
    area_bespoke = stats.Cut.bespoke_area;
    leak_original = Report.leakage_nw net;
    leak_bespoke = Report.leakage_nw bespoke;
    critical_ps_original = sta0.Sta.critical_path_ps;
    critical_ps_bespoke = sta1.Sta.critical_path_ps;
    vmin =
      Voltage.vmin ~critical_path_ps:sta1.Sta.critical_path_ps
        ~period_ps:sta0.Sta.critical_path_ps;
    paths = report.Activity.paths;
    merges = report.Activity.merges;
    prunes = report.Activity.prunes;
    escapes = report.Activity.escaped_paths;
    cycles = report.Activity.total_cycles;
    cut_reasons = Provenance.histogram prov;
    modules = Attribution.table ~original:net ~bespoke;
  }

(* ---- per-gate explanation (tailor --explain) ---- *)

let resolve_gate_ref net s =
  match int_of_string_opt s with
  | Some id ->
    if id >= 0 && id < Netlist.gate_count net then Ok [ id ]
    else
      Error
        (Printf.sprintf "gate id %d out of range (design has %d gates)" id
           (Netlist.gate_count net))
  | None -> (
    match Netlist.find_bits net s with
    | ids -> Ok (Array.to_list ids)
    | exception Not_found ->
      Error (Printf.sprintf "no gate, net or port named %S" s))

let explain_gate oc net (report : Activity.report) (prov : Provenance.t) id =
  let g = net.Netlist.gates.(id) in
  Printf.fprintf oc "gate %d: %s (drive %d)%s%s\n" id (Gate.op_name g.Gate.op)
    g.Gate.drive
    (if g.Gate.module_path = "" then ""
     else ", module " ^ g.Gate.module_path)
    (match Netlist.names_of net id with
    | [] -> ""
    | names -> ", aka " ^ String.concat ", " names);
  (match report.Activity.first_toggle.(id) with
  | Some ft ->
    Printf.fprintf oc "  first possible toggle: cycle %d, tree node %d%s\n"
      ft.Activity.ft_cycle ft.Activity.ft_node
      (if ft.Activity.ft_pc >= 0 then
         Printf.sprintf ", pc=0x%04x" ft.Activity.ft_pc
       else " (before the first instruction boundary)");
    let tr = report.Activity.tree in
    let rec chain acc n =
      if n < 0 then acc else chain (n :: acc) tr.(n).Activity.parent
    in
    Printf.fprintf oc "  tree path: %s\n"
      (String.concat " -> "
         (List.map
            (fun n -> Printf.sprintf "%d[%s]" n tr.(n).Activity.edge_label)
            (chain [] ft.Activity.ft_node)))
  | None -> ());
  match prov.Provenance.reason.(id) with
  | None -> Printf.fprintf oc "  port pin / tie cell: free in the silicon model\n"
  | Some r ->
    Printf.fprintf oc "  %s\n" (Format.asprintf "%a" Provenance.pp_reason r);
    if Provenance.is_cut r && Array.length g.Gate.fanin > 0 then begin
      (* The causal chain: the fanin cone with the reset-time constants
         Algorithm 1 recorded, bounded to keep the output readable. *)
      Printf.fprintf oc "  fanin cone (recorded constants):\n";
      let seen = Hashtbl.create 16 in
      let rec walk depth fid =
        if depth <= 3 && not (Hashtbl.mem seen fid) then begin
          Hashtbl.replace seen fid ();
          let fg = net.Netlist.gates.(fid) in
          Printf.fprintf oc "  %s- gate %d %s%s\n"
            (String.make (2 * depth) ' ')
            fid (Gate.op_name fg.Gate.op)
            (if report.Activity.possibly_toggled.(fid) then " (can toggle)"
             else
               Printf.sprintf " = %c"
                 (Bit.to_char report.Activity.constant_values.(fid)));
          if not report.Activity.possibly_toggled.(fid) then
            Array.iter (walk (depth + 1)) fg.Gate.fanin
        end
      in
      Array.iter (walk 1) g.Gate.fanin
    end

(* ---- asm ---- *)

let cmd_asm =
  let run prog =
    handle
      (catching (fun () ->
           let* entry, b = prog in
           let img = entry.Cores.core.Coredef.assemble b.B.source in
           print_string (img.Coredef.listing ());
           Ok ()))
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a program and print its listing")
    Term.(ret (const run $ program_arg))

(* ---- run ---- *)

let cmd_run =
  let netlist_arg =
    Arg.(value & opt (some file) None
         & info [ "netlist" ] ~docv:"FILE"
             ~doc:"Run on a saved (bespoke) netlist instead of the stock core.")
  in
  let guard_flag =
    Arg.(value & flag
         & info [ "guard" ]
             ~doc:"Tailor the benchmark and run it with the shadow guard \
                   watcher attached: every hardware-checkable cut assumption \
                   is re-checked at each committed cycle.  Exits non-zero if \
                   any assumption is violated (on the program the design was \
                   tailored to, it never is).")
  in
  let guard_out_arg =
    Arg.(value & opt (some string) None
         & info [ "guard-out" ] ~docv:"FILE"
             ~doc:"With $(b,--guard): write the bespoke-guard/v1 JSONL \
                   violation stream to $(docv).")
  in
  let run prog gpio seed netlist_file jobs guard guard_out obs =
    handle
      (with_obs obs @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* entry, b = prog in
           let core = entry.Cores.core in
           if guard then begin
             if netlist_file <> None then
               Error
                 "--guard tailors the benchmark itself and cannot rebuild the \
                  cut provenance of a saved netlist; drop --netlist"
             else begin
               let t = Runner.tailor_cached ~core b in
               let bespoke = t.Runner.bespoke in
               let plan = Guard.plan_of_tailored t in
               let w = Guard.watch_bespoke plan in
               let o =
                 Runner.check_equivalence ~attach:(Guard.attach w)
                   ~netlist:bespoke ~core b ~seed
               in
               Printf.printf
                 "ran %d instructions, %d cycles (gate level verified against \
                  the ISS)\n"
                 o.Runner.instructions o.Runner.cycles;
               Printf.printf "guard: %d monitor(s) over %d cycle(s): %s\n"
                 (List.length plan.Guard.p_monitors)
                 (Guard.cycles_checked w)
                 (if Guard.clean w then "clean" else "VIOLATED");
               List.iter
                 (fun v -> Format.printf "%a@." (Guard.pp_violation plan) v)
                 (Guard.violations w);
               (match guard_out with
               | None -> ()
               | Some path ->
                 let oc = open_out path in
                 Guard.write_stream oc plan ~core:core.Coredef.name
                   ~design:b.B.name ~workload:b.B.name ~mode:"shadow" w;
                 close_out oc;
                 Printf.eprintf "wrote guard stream to %s\n" path);
               if Guard.clean w then Ok ()
               else
                 Error
                   (Printf.sprintf "%d cut-assumption violation(s)"
                      (Guard.total_violations w))
             end
           end
           else begin
           let netlist = Option.map Bespoke_netlist.Serial.load netlist_file in
           let o =
             if b.B.gen_inputs seed = ([], 0) && gpio <> 0 then begin
               (* raw program: run via lockstep with the given gpio *)
               let img = core.Coredef.assemble b.B.source in
               let r = Lockstep.run ?netlist ~gpio_in:gpio ~core img in
               Printf.printf "ran %d instructions, %d cycles, gpio_out=0x%0*x\n"
                 r.Lockstep.instructions r.Lockstep.cycles
                 (Coredef.hex_digits core) r.Lockstep.gpio_final;
               None
             end
             else Some (Runner.check_equivalence ?netlist ~core b ~seed)
           in
           (match o with
           | Some o ->
             Printf.printf
               "ran %d instructions, %d cycles (gate level verified against the ISS)\n"
               o.Runner.instructions o.Runner.cycles;
             List.iter
               (fun (a, v) -> Printf.printf "result[0x%04x] = 0x%04x\n" a v)
               o.Runner.results;
             Printf.printf "gpio_out = 0x%04x\n" o.Runner.gpio_out
           | None -> ());
           Ok ()
           end))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a program on the ISS and the gate-level core")
    Term.(
      ret
        (const run $ program_arg $ gpio_arg $ seed_arg $ netlist_arg
        $ jobs_arg $ guard_flag $ guard_out_arg $ obs_args))

(* ---- analyze ---- *)

let cmd_analyze =
  let tree_dot_arg =
    Arg.(value & opt (some string) None
         & info [ "tree-dot" ] ~docv:"FILE"
             ~doc:"Write the explored symbolic execution tree as a Graphviz \
                   digraph to $(docv) (nodes colored by how each path ended).")
  in
  let run prog json tree_dot jobs obs =
    handle
      (with_obs obs @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* entry, b = prog in
           let report, net = Runner.analyze ~core:entry.Cores.core b in
           let oc = if json then stderr else stdout in
           Printf.fprintf oc
             "explored %d paths (%d merges, %d prunes, %d escapes), %d cycles\n"
             report.Activity.paths report.Activity.merges report.Activity.prunes
             report.Activity.escaped_paths report.Activity.total_cycles;
           let rows = Usage.per_module net report.Activity.possibly_toggled in
           Printf.fprintf oc "exercisable gates per module:\n%!";
           let ff = Format.formatter_of_out_channel oc in
           Format.fprintf ff "%a@?" Usage.pp_per_module rows;
           (match tree_dot with
           | None -> ()
           | Some path ->
             let och = open_out path in
             output_string och (Activity.tree_dot report);
             close_out och;
             Printf.fprintf oc "wrote execution tree to %s (%d nodes)\n" path
               (Array.length report.Activity.tree));
           if json then
             print_string
               (Artifact.analysis_to_json ~name:b.B.name
                  ~paths:report.Activity.paths ~merges:report.Activity.merges
                  ~prunes:report.Activity.prunes
                  ~escapes:report.Activity.escaped_paths
                  ~cycles:report.Activity.total_cycles
                  ~modules:
                    (List.filter_map
                       (fun r ->
                         if r.Usage.module_name = "(total)" then None
                         else
                           Some (r.Usage.module_name, r.Usage.active, r.Usage.total))
                       rows));
           Ok ()))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Input-independent gate activity analysis of a program")
    Term.(
      ret
        (const run $ program_arg $ json_arg $ tree_dot_arg $ jobs_arg
        $ obs_args))

(* ---- tailor ---- *)

let cmd_tailor =
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ] ~doc:"Verify the bespoke design (input-based + symbolic shadow).")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Save the bespoke netlist in reloadable text form (see the \
                   run command's --netlist).")
  in
  let explain_arg =
    Arg.(value & opt_all string []
         & info [ "explain" ] ~docv:"GATE"
             ~doc:"Explain what happened to a gate of the original design \
                   (numeric id, or a net/port name like $(b,pc) or \
                   $(b,pc[3])): first-toggle provenance for exercisable \
                   gates, the typed cut reason and recorded fanin-cone \
                   constants otherwise.  Repeatable.")
  in
  let instrument_arg =
    Arg.(value & flag
         & info [ "instrument" ]
             ~doc:"Add deployment guards to the bespoke design: one \
                   comparator + sticky violation DFF per checkable cut \
                   assumption, OR-reduced into a 1-bit \
                   $(b,guard_violation) output port.  Reports the guard's \
                   own area/power overhead; with $(b,--save) the saved \
                   netlist is the instrumented one.")
  in
  let run prog verify save json explain instrument jobs obs cache_stats =
    handle
      (with_obs obs @@ fun () ->
       with_cache_stats cache_stats @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* entry, b = prog in
           let core = entry.Cores.core in
           let t = Runner.tailor_cached ~core b in
           let { Runner.report; original = net; bespoke; stats; prov } = t in
           let guarded =
             if not instrument then None
             else begin
               let plan = Guard.plan_of_tailored t in
               Some (plan, Guard.instrument plan)
             end
           in
           let oc = if json then stderr else stdout in
           let ff = Format.formatter_of_out_channel oc in
           Format.fprintf ff "%a@." Cut.pp_stats stats;
           Option.iter
             (fun (plan, inst) ->
               Format.fprintf ff "guard: %a@." Guard.pp_hw_stats
                 (Guard.hw_stats plan inst))
             guarded;
           let sta0 = Sta.analyze net and sta1 = Sta.analyze bespoke in
           let vmin =
             Voltage.vmin ~critical_path_ps:sta1.Sta.critical_path_ps
               ~period_ps:sta0.Sta.critical_path_ps
           in
           Printf.fprintf oc
             "critical path %.0f ps -> %.0f ps (%.1f%% slack); Vmin %.2f V\n"
             sta0.Sta.critical_path_ps sta1.Sta.critical_path_ps
             (100.0
             *. Sta.slack_fraction ~baseline_ps:sta0.Sta.critical_path_ps sta1)
             vmin;
           Printf.fprintf oc "area %.0f -> %.0f um2\n" (Report.area_um2 net)
             (Report.area_um2 bespoke);
           let* () =
             List.fold_left
               (fun acc s ->
                 let* () = acc in
                 let* ids = resolve_gate_ref net s in
                 List.iter (explain_gate oc net report prov) ids;
                 Ok ())
               (Ok ()) explain
           in
           let* () =
             if not verify then Ok ()
             else begin
               List.iter
                 (fun seed ->
                   ignore
                     (Runner.check_equivalence ~netlist:bespoke ~core b ~seed))
                 [ 1; 2; 3 ];
               let sym =
                 Verify.symbolic_check ~core ~report ~shadow_net:bespoke b
               in
               if sym.Verify.sym_ok then begin
                 Printf.fprintf oc
                   "verified: input-based equivalence (3 seeds) and symbolic \
                    shadow analysis\n";
                 Ok ()
               end
               else
                 Error
                   ("symbolic shadow analysis: "
                   ^ Option.value ~default:"mismatch" sym.Verify.sym_detail)
             end
           in
           (match save with
           | None -> ()
           | Some path ->
             let saved =
               match guarded with
               | Some (_, inst) -> inst.Guard.i_design
               | None -> bespoke
             in
             Bespoke_netlist.Serial.save path saved;
             (* the usable-gate set over the original design enables
                later in-field update checks *)
             Bespoke_netlist.Serial.save_gate_set (path ^ ".gates")
               report.Activity.possibly_toggled;
             Printf.fprintf oc "saved %s netlist to %s (+ %s.gates)\n"
               (if guarded = None then "bespoke" else "instrumented bespoke")
               path path);
           if json then
             print_string
               (Artifact.to_json [ build_entry b t ]);
           Ok ()))
  in
  Cmd.v
    (Cmd.info "tailor" ~doc:"Produce and report the bespoke design for a program")
    Term.(
      ret
        (const run $ program_arg $ verify_arg $ save_arg $ json_arg
        $ explain_arg $ instrument_arg $ jobs_arg $ obs_args $ cache_stats_arg))

(* ---- report (savings artifact across benchmarks) ---- *)

let cmd_report =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run programs json out obs =
    handle
      (with_obs obs @@ fun () ->
       catching (fun () ->
           let* entry, benches = programs in
           let entries =
             List.map
               (fun (b : B.t) ->
                 Printf.eprintf "tailoring %-18s ...\n%!" b.B.name;
                 build_entry b (Runner.tailor_cached ~core:entry.Cores.core b))
               benches
           in
           let text =
             if json then Artifact.to_json entries
             else Format.asprintf "%a" Artifact.pp_text entries
           in
           (match out with
           | None -> print_string text
           | Some path ->
             let och = open_out path in
             output_string och text;
             close_out och;
             Printf.eprintf "wrote %s (%d benchmarks)\n" path
               (List.length entries));
           Ok ()))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Tailor one or all benchmarks and emit the savings report \
             (human-readable text, or a schema-versioned JSON artifact with \
             per-module attribution and cut-reason histograms)")
    Term.(
      ret
        (const run $ programs_arg (Term.const None) $ json_arg $ out_arg
        $ obs_args))

(* ---- verify (paper Section 5.1 / Table 3 campaign) ---- *)

let cmd_verify =
  let faults_arg =
    Arg.(value & opt int 8
         & info [ "faults" ] ~docv:"N"
             ~doc:"Number of netlist faults injected per benchmark (layer 2 \
                   of the campaign); 0 disables fault injection.")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "explore-budget" ] ~docv:"N"
             ~doc:"Candidate budget for the coverage-directed input search.")
  in
  let run programs json faults seed budget jobs obs cache_stats =
    handle
      (with_obs obs @@ fun () ->
       with_cache_stats cache_stats @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* entry, benches = programs in
           List.iter
             (fun (b : B.t) ->
               Printf.eprintf "verifying %-18s ...\n%!" b.B.name)
             benches;
           let campaigns =
             Verify.run_campaign ~faults ~seed ?explore_budget:budget
               ~core:entry.Cores.core benches
           in
           let oc = if json then stderr else stdout in
           let ff = Format.formatter_of_out_channel oc in
           Format.fprintf ff "%a@?" Verify.pp_text campaigns;
           if json then print_string (Verify.to_json campaigns);
           let bad =
             List.filter (fun (c : Verify.campaign) -> not c.Verify.equivalent)
               campaigns
           in
           let missed =
             List.filter
               (fun c ->
                 let s = Verify.kill_stats c in
                 Verify.detectable_score_pct s < 100.0 -. 1e-9)
               campaigns
           in
           match bad, missed with
           | [], [] -> Ok ()
           | b :: _, _ ->
             Error
               (Printf.sprintf "verification FAILED: %s is not equivalent"
                  b.Verify.benchmark)
           | [], m :: _ ->
             Error
               (Printf.sprintf
                  "verification FAILED: %s: a detectable injected fault \
                   survived the checker"
                  m.Verify.benchmark)))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the verification campaign: symbolic + input-based \
             equivalence checking of the bespoke design (Table 3 columns), \
             adversarial netlist-fault injection with a mutation-kill score, \
             and shrunk repros for every divergence.  Exits non-zero if any \
             design is non-equivalent or any detectable fault survives.")
    Term.(
      ret
        (const run $ programs_arg file_arg $ json_arg $ faults_arg $ seed_arg
        $ budget_arg $ jobs_arg $ obs_args $ cache_stats_arg))

(* ---- campaign (batch jobs on the pool, JSONL stream) ---- *)

let cmd_campaign =
  let jobs_file_arg =
    Arg.(value & opt (some file) None
         & info [ "file" ] ~docv:"JOBS.TXT"
             ~doc:"Job-list file: one $(b,KIND BENCH [core=NAME] [seed=N] \
                   [faults=N] [mutant=N]) per line, where KIND is \
                   analyze, tailor, report, verify, run or guard; blank lines \
                   and # comments are skipped.")
  in
  let job_specs_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"JOB"
             ~doc:"Inline job specs, colon-separated: \
                   $(b,KIND:BENCH[:core=NAME][:seed=N][:faults=N][:mutant=N]), \
                   e.g. $(b,verify:mult:core=rv32:faults=4).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the bespoke-campaign/v1 JSONL stream to $(docv) \
                   (default stdout).")
  in
  let progress_arg =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Render a live status line (done/running/failed, jobs/s, \
                   cache hit-rate, ETA) on stderr and interleave \
                   machine-readable heartbeat records into the JSONL stream.")
  in
  let run jobs_file specs out jobs progress obs cache_stats =
    handle
      (with_obs obs @@ fun () ->
       with_cache_stats cache_stats @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* from_file =
             match jobs_file with
             | None -> Ok []
             | Some path -> Campaign.parse_file path
           in
           let* from_specs =
             List.fold_left
               (fun acc spec ->
                 let* js = acc in
                 let line =
                   String.concat " " (String.split_on_char ':' spec)
                 in
                 match Campaign.parse_line line with
                 | Ok (Some j) -> Ok (j :: js)
                 | Ok None -> Error (Printf.sprintf "empty job spec %S" spec)
                 | Error m -> Error (Printf.sprintf "%S: %s" spec m))
               (Ok []) specs
           in
           let js = from_file @ List.rev from_specs in
           if js = [] then
             Error "no jobs: give --file JOBS.TXT and/or inline JOB specs"
           else begin
             let oc, close =
               match out with
               | None -> (stdout, fun () -> flush stdout)
               | Some path ->
                 let oc = open_out path in
                 (oc, fun () -> close_out oc)
             in
             Fun.protect ~finally:close @@ fun () ->
             let jobs_n = Pool.default_jobs () in
             let cores =
               List.sort_uniq compare
                 (List.map (fun j -> j.Campaign.core) js)
             in
             output_string oc
               (Campaign.header_jsonl ~jobs:jobs_n ~cores
                  ~total:(List.length js));
             output_char oc '\n';
             let emit o =
               output_string oc (Campaign.outcome_jsonl o);
               output_char oc '\n';
               flush oc;
               (* with --progress the status line replaces per-job logs *)
               if not progress then
                 match o.Campaign.status with
                 | Ok _ ->
                   Printf.eprintf "job %d %s %s: ok%s (%.3f s)\n%!"
                     o.Campaign.o_index
                     (Campaign.kind_to_string o.Campaign.o_job.Campaign.kind)
                     (Campaign.program_name o.Campaign.o_job.Campaign.program)
                     (if o.Campaign.cached then " (cached)" else "")
                     o.Campaign.time_s
                 | Error m ->
                   Printf.eprintf "job %d %s %s: ERROR %s\n%!"
                     o.Campaign.o_index
                     (Campaign.kind_to_string o.Campaign.o_job.Campaign.kind)
                     (Campaign.program_name o.Campaign.o_job.Campaign.program)
                     m
             in
             (* Heartbeats: one every ~1/8 of the campaign (at least one,
                always one at the end), written after the outcome record
                that triggered them — the callbacks share the campaign's
                serialization lock, so the stream never interleaves.  The
                stderr line is wall-clock throttled instead, to stay
                readable on fast cache-warm runs. *)
             let hb_every = max 1 (List.length js / 8) in
             let hb_seq = ref 0 in
             let last_render = ref 0.0 in
             let on_event ev (p : Campaign.progress) =
               (match ev with
               | Campaign.Job_finished _
                 when p.Campaign.p_done mod hb_every = 0
                      || p.Campaign.p_done = p.Campaign.p_total ->
                 output_string oc (Campaign.heartbeat_jsonl ~seq:!hb_seq p);
                 output_char oc '\n';
                 flush oc;
                 incr hb_seq
               | _ -> ());
               let t = Unix.gettimeofday () in
               if
                 t -. !last_render >= 0.1
                 || p.Campaign.p_done = p.Campaign.p_total
               then begin
                 last_render := t;
                 Printf.eprintf "\r%s%!" (Campaign.progress_line p)
               end
             in
             let _, summary =
               Campaign.run ~on_outcome:emit
                 ?on_event:(if progress then Some on_event else None)
                 js
             in
             if progress then prerr_newline ();
             output_string oc (Campaign.summary_jsonl summary);
             output_char oc '\n';
             Printf.eprintf
               "campaign: %d job(s), %d ok, %d failed, %d cache hit(s), %.3f s \
                at %d job(s) in flight\n%!"
               summary.Campaign.total summary.Campaign.ok
               summary.Campaign.failed summary.Campaign.cache_hits
               summary.Campaign.wall_s summary.Campaign.jobs_used;
             (* per-job failures are error records in the stream, not a
                campaign failure — the campaign completed *)
             Ok ()
           end))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a batch of flow jobs (analyze/tailor/report/verify/run/\
             guard) across the domain pool, memoized by the content-addressed \
             flow cache, streaming schema-versioned bespoke-campaign/v1 \
             JSONL.  A job that fails yields an error record; the campaign \
             always completes.")
    Term.(
      ret
        (const run $ jobs_file_arg $ job_specs_arg $ out_arg $ jobs_arg
       $ progress_arg $ obs_args $ cache_stats_arg))

(* ---- guard (deployment-guard replay; paper Section 5.3 risk) ---- *)

let cmd_guard =
  let mutant_arg =
    Arg.(value & opt (some int) None
         & info [ "mutant" ] ~docv:"ID"
             ~doc:"Replay mutant $(docv) of the program (a one-instruction \
                   bug-fix update; see $(b,--list)) instead of the program \
                   itself — the paper's Section 5.3 in-field-update risk, \
                   made observable.")
  in
  let list_arg =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List the program's mutants (id, type, line, change) and \
                   exit.")
  in
  let mode_arg =
    Arg.(value
         & opt (enum [ ("hw", `Hw); ("shadow", `Shadow); ("original", `Original) ])
             `Hw
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"What watches the replay: $(b,hw) (default) runs the \
                   instrumented design — the synthesized guard logic drives \
                   the $(b,guard_violation) port and the shadow watcher \
                   cross-checks it; $(b,shadow) runs the plain bespoke design \
                   with only the zero-hardware watcher; $(b,original) replays \
                   on the original core, where every assumption (including \
                   unmonitorable ones) is checkable.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the bespoke-guard/v1 JSONL stream (header, one \
                   record per violated assumption with its cut provenance, \
                   summary) to $(docv).")
  in
  let max_cycles_arg =
    Arg.(value & opt int 300_000
         & info [ "max-cycles" ] ~docv:"N"
             ~doc:"Replay deadline in cycles (default 300000) — a workload \
                   the design was not tailored for may never halt; the \
                   violations seen before the deadline are the point.")
  in
  let run prog mutant list_only mode out seed max_cycles jobs obs cache_stats =
    handle
      (with_obs obs @@ fun () ->
       with_cache_stats cache_stats @@ fun () ->
       catching (fun () ->
           apply_jobs jobs;
           let* entry, b = prog in
           let core = entry.Cores.core in
           let msp430 =
             core.Coredef.name = Cores.default.Cores.core.Coredef.name
           in
           let* () =
             if (mutant <> None || list_only) && not msp430 then
               Error
                 (Printf.sprintf
                    "guard mutants are not available on core %s (the mutation \
                     catalog rewrites %s assembly)"
                    core.Coredef.name Cores.default.Cores.core.Coredef.name)
             else Ok ()
           in
           if list_only then begin
             List.iter
               (fun (m : Mutation.mutant) ->
                 Printf.printf "%4d  %-20s line %-3d %s -> %s\n" m.Mutation.id
                   (Mutation.type_name m.Mutation.mtype)
                   m.Mutation.line m.Mutation.original m.Mutation.replacement)
               (Mutation.mutants b);
             Ok ()
           end
           else begin
             let* workload =
               match mutant with
               | None -> Ok b
               | Some id -> (
                 let ms = Mutation.mutants b in
                 match
                   List.find_opt (fun m -> m.Mutation.id = id) ms
                 with
                 | Some m -> Ok (Mutation.to_benchmark b m)
                 | None ->
                   Error
                     (Printf.sprintf
                        "no mutant %d of %s (%d mutant(s); see guard --list)"
                        id b.B.name (List.length ms)))
             in
             let t = Runner.tailor_cached ~core b in
             let { Runner.original = net; bespoke; _ } = t in
             let plan = Guard.plan_of_tailored t in
             let mode_s =
               match mode with
               | `Hw -> "hw"
               | `Shadow -> "shadow"
               | `Original -> "original"
             in
             let watcher, netlist =
               match mode with
               | `Hw ->
                 let inst = Guard.instrument plan in
                 Printf.printf "guard hardware: %s\n"
                   (Format.asprintf "%a" Guard.pp_hw_stats
                      (Guard.hw_stats plan inst));
                 (Guard.watch_bespoke plan, inst.Guard.i_design)
               | `Shadow -> (Guard.watch_bespoke plan, bespoke)
               | `Original -> (Guard.watch_original plan, net)
             in
             Printf.printf
               "replaying %s on %s's %s design: %d assumption(s), %d \
                monitor(s) (%d implied, %d unmonitorable)\n%!"
               workload.B.name b.B.name
               (if mode = `Original then "original" else "bespoke")
               (List.length plan.Guard.p_assumptions)
               (List.length plan.Guard.p_monitors)
               plan.Guard.p_implied plan.Guard.p_unmonitorable;
             let rp =
               Guard.replay ~max_cycles watcher ~core ~netlist workload ~seed
             in
             (match rp.Guard.rp_result with
             | Ok o -> Printf.printf "halted after %d cycle(s)\n" o.Runner.g_cycles
             | Error m -> Printf.printf "replay did not complete: %s\n" m);
             let vs = Guard.violations watcher in
             List.iteri
               (fun i v ->
                 if i < 20 then
                   Format.printf "%a@." (Guard.pp_violation plan) v)
               vs;
             if List.length vs > 20 then
               Printf.printf "... and %d more violating gate(s)\n"
                 (List.length vs - 20);
             (match rp.Guard.rp_hw_violation with
             | Some bit ->
               Printf.printf "guard_violation port = %c\n" (Bit.to_char bit)
             | None -> ());
             (match out with
             | None -> ()
             | Some path ->
               let oc = open_out path in
               Guard.write_stream oc plan ~core:core.Coredef.name
                 ~design:b.B.name ~workload:workload.B.name ~mode:mode_s
                 watcher;
               close_out oc;
               Printf.eprintf "wrote guard stream to %s\n" path);
             let hw_hit = rp.Guard.rp_hw_violation = Some Bit.One in
             if Guard.clean watcher && not hw_hit then begin
               Printf.printf "clean: every cut assumption held\n";
               Ok ()
             end
             else
               Error
                 (Printf.sprintf
                    "%d cut-assumption violation(s) on %d gate(s)%s"
                    (Guard.total_violations watcher)
                    (List.length vs)
                    (if hw_hit then "; guard_violation=1" else ""))
           end))
  in
  Cmd.v
    (Cmd.info "guard"
       ~doc:"Replay a workload (the program itself, or one of its \
             single-instruction mutants) against the program's tailored \
             design with the deployment guards watching: synthesized \
             cut-assumption monitors in hardware mode, the zero-overhead \
             shadow watcher otherwise.  Streams bespoke-guard/v1 JSONL with \
             cut/keep provenance per violation and exits non-zero when any \
             assumption is violated.")
    Term.(
      ret
        (const run $ program_arg $ mutant_arg $ list_arg $ mode_arg $ out_arg
        $ seed_arg $ max_cycles_arg $ jobs_arg $ obs_args $ cache_stats_arg))

(* ---- update-check (paper Section 3.5) ---- *)

let cmd_update_check =
  let set_arg =
    Arg.(required & opt (some file) None
         & info [ "design-set" ] ~docv:"FILE.gates"
             ~doc:"Usable-gate set saved by 'tailor --save'.")
  in
  let run prog set_file =
    handle
      (catching (fun () ->
           let* entry, b = prog in
           let design_set = Bespoke_netlist.Serial.load_gate_set set_file in
           let report, _ = Runner.analyze ~core:entry.Cores.core b in
           let needed = report.Activity.possibly_toggled in
           if Array.length needed <> Array.length design_set then
             Error "gate set does not match this core (size mismatch)"
           else begin
             let missing = ref 0 in
             Array.iteri
               (fun i n -> if n && not design_set.(i) then incr missing)
               needed;
             if !missing = 0 then begin
               Printf.printf
                 "SUPPORTED: the update runs on the existing bespoke design\n";
               Ok ()
             end
             else begin
               Printf.printf
                 "NOT SUPPORTED: the update needs %d gates the design does not \
                  have\n"
                 !missing;
               Ok ()
             end
           end))
  in
  Cmd.v
    (Cmd.info "update-check"
       ~doc:"Check whether a new binary runs on an existing bespoke design")
    Term.(ret (const run $ program_arg $ set_arg))

(* ---- export ---- *)

let cmd_export =
  let fmt_arg =
    Arg.(value
         & opt (enum [ ("verilog", `Verilog); ("dot-modules", `Dot_modules);
                       ("dot-gates", `Dot_gates); ("netlist", `Netlist) ])
             `Verilog
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: verilog, dot-modules, dot-gates or netlist \
                   (reloadable text form).")
  in
  let bespoke_arg =
    Arg.(value & flag
         & info [ "bespoke" ]
             ~doc:"Export the tailored (bespoke) design instead of the stock core.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run prog fmt bespoke out =
    handle
      (catching (fun () ->
           let* entry, b = prog in
           let core = entry.Cores.core in
           let net =
             if bespoke then (Runner.tailor_cached ~core b).Runner.bespoke
             else Runner.shared_netlist core
           in
           let text =
             match fmt with
             | `Verilog ->
               Bespoke_netlist.Export.to_verilog
                 ~module_name:
                   (if bespoke then "bespoke_" ^ b.B.name
                    else if
                      core.Coredef.name
                      = Cores.default.Cores.core.Coredef.name
                    then "openmcu"
                    else core.Coredef.name)
                 net
             | `Dot_modules -> Bespoke_netlist.Export.module_graph_dot net
             | `Dot_gates ->
               Bespoke_netlist.Export.gate_graph_dot ~max_gates:10_000 net
             | `Netlist -> Bespoke_netlist.Serial.to_string net
           in
           (match out with
           | None -> print_string text
           | Some path ->
             let oc = open_out path in
             output_string oc text;
             close_out oc;
             Printf.printf "wrote %s (%d bytes)\n" path (String.length text));
           Ok ()))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a design as structural Verilog or a Graphviz graph")
    Term.(
      ret
        (const run $ program_arg $ fmt_arg $ bespoke_arg $ out_arg))

(* ---- trace (VCD) ---- *)

let cmd_trace =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"VCD output file.")
  in
  (* The run is Runner.run_gate's own (inputs, IRQ schedule, halt
     check); the VCD samples the settled state after the input load
     and after every committed cycle. *)
  let max_cycles = 100_000 in
  let run prog seed out =
    handle
      (catching (fun () ->
           let* entry, b = prog in
           let core = entry.Cores.core in
           let buf = Buffer.create (1 lsl 16) in
           let vcd = ref None in
           let cycles = ref 0 in
           let attach eng =
             let v =
               Bespoke_sim.Vcd.create buf eng ~signals:core.Coredef.trace_signals
             in
             vcd := Some v;
             Bespoke_sim.Vcd.sample v ~time:0;
             Bespoke_sim.Engine.set_cycle_hook eng
               (Some
                  (fun n ->
                    cycles := n;
                    Bespoke_sim.Vcd.sample v ~time:n))
           in
           let halted =
             match Runner.run_gate ~attach ~max_cycles ~core b ~seed with
             | _ -> true
             | exception Failure _ when !cycles >= max_cycles -> false
           in
           Option.iter
             (fun v -> Bespoke_sim.Vcd.finish v ~time:(!cycles + 1))
             !vcd;
           let oc = open_out out in
           Buffer.output_buffer oc buf;
           close_out oc;
           Printf.printf "wrote %s (%d cycles)\n" out !cycles;
           if not halted then
             Printf.eprintf
               "warning: %s did not halt within %d cycles; the VCD stops \
                there\n%!"
               b.B.name max_cycles;
           Ok ()))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a program and dump a VCD waveform")
    Term.(ret (const run $ program_arg $ seed_arg $ out_arg))

(* ---- stats (aggregate telemetry artifacts; regression compare) ---- *)

let cmd_stats =
  let trace_arg =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Aggregate a Chrome-trace JSONL file into a per-span \
                   self-time table.")
  in
  let metrics_arg =
    Arg.(value & opt (some file) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Summarize a $(b,bespoke-metrics/v1) JSONL time series \
                   (final counters/gauges, histogram p50/p90/p99).")
  in
  let campaign_arg =
    Arg.(value & opt (some file) None
         & info [ "campaign" ] ~docv:"FILE"
             ~doc:"Summarize a $(b,bespoke-campaign/v1) JSONL stream \
                   (outcomes, per-kind time, heartbeats).")
  in
  let guard_arg =
    Arg.(value & opt (some file) None
         & info [ "guard" ] ~docv:"FILE"
             ~doc:"Summarize a $(b,bespoke-guard/v1) JSONL stream (monitor \
                   coverage, violation verdict, cut-reason histogram).")
  in
  let top_arg =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N" ~doc:"Rows in the span table (default 15).")
  in
  let compare_arg =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"Compare two bench artifacts (positional $(b,OLD NEW): \
                   BENCH_sim.json or BENCH_history.jsonl, last entry) and \
                   exit non-zero if any throughput metric regressed beyond \
                   $(b,--threshold).")
  in
  let threshold_arg =
    Arg.(value & opt float 10.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Regression threshold for --compare, in percent (default \
                   10: flag metrics that dropped more than 10%).")
  in
  let files_arg =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"For --compare: the OLD and NEW bench \
                                      artifacts.")
  in
  let run trace metrics campaign guard top compare threshold files =
    handle
      (catching (fun () ->
           let ( let* ) = Result.bind in
           if compare then
             match files with
             | [ old_f; new_f ] ->
               let* old_e = Stats.load_bench old_f in
               let* new_e = Stats.load_bench new_f in
               let threshold = threshold /. 100.0 in
               let c = Stats.compare_benches ~threshold old_e new_e in
               print_string (Stats.render_compare ~threshold old_e new_e c);
               if c.Stats.regressions = [] then Ok ()
               else
                 Error
                   (Printf.sprintf
                      "%d metric(s) regressed more than %.0f%% (worst: %s, \
                       %+.1f%%)"
                      (List.length c.Stats.regressions)
                      (threshold *. 100.0)
                      (List.hd c.Stats.regressions).Stats.d_metric
                      (100.0
                      *. ((List.hd c.Stats.regressions).Stats.d_ratio -. 1.0)))
             | _ -> Error "--compare needs exactly two files: OLD NEW"
           else if
             trace = None && metrics = None && campaign = None && guard = None
           then
             Error
               "nothing to do: give --trace, --metrics, --campaign and/or \
                --guard, or --compare OLD NEW"
           else begin
             let* () =
               match trace with
               | None -> Ok ()
               | Some path ->
                 let* spans = Stats.load_trace path in
                 Printf.printf "spans (%s):\n%s" path
                   (Stats.render_spans ~top spans);
                 Ok ()
             in
             let* () =
               match metrics with
               | None -> Ok ()
               | Some path ->
                 let* series = Stats.load_metrics path in
                 Printf.printf "metrics (%s): %s" path
                   (Stats.render_series series);
                 Ok ()
             in
             let* () =
               match campaign with
               | None -> Ok ()
               | Some path ->
                 let* c = Stats.load_campaign path in
                 Printf.printf "campaign (%s): %s" path
                   (Stats.render_campaign c);
                 Ok ()
             in
             let* () =
               match guard with
               | None -> Ok ()
               | Some path ->
                 let* g = Stats.load_guard path in
                 Printf.printf "guard (%s): %s" path (Stats.render_guard g);
                 Ok ()
             in
             Ok ()
           end))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Aggregate flow telemetry artifacts — per-span self-time tables \
             from traces, metrics time-series summaries, campaign stream \
             digests — and compare bench artifacts for performance \
             regressions (non-zero exit when --compare finds one).")
    Term.(
      ret
        (const run $ trace_arg $ metrics_arg $ campaign_arg $ guard_arg
       $ top_arg $ compare_arg $ threshold_arg $ files_arg))

(* ---- bench-list ---- *)

let cmd_bench_list =
  let core_filter_arg =
    Arg.(value
         & opt (some string) None
         & info [ "core" ] ~docv:"CORE"
             ~doc:(Printf.sprintf "Only list one core's suite: %s."
                     (String.concat ", " Cores.names)))
  in
  let run core_filter =
    let list_entry (entry : Cores.entry) =
      Printf.printf "core %s:\n" entry.Cores.core.Coredef.name;
      List.iter
        (fun (b : B.t) ->
          Printf.printf "  %-18s %s\n" b.B.name b.B.description)
        entry.Cores.benchmarks
    in
    match core_filter with
    | None ->
      List.iter list_entry Cores.all;
      `Ok ()
    | Some name -> (
      match resolve_core name with
      | Ok entry ->
        list_entry entry;
        `Ok ()
      | Error m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "bench-list"
       ~doc:"List the built-in benchmark programs, per core")
    Term.(ret (const run $ core_filter_arg))

let () =
  (* SIGINT becomes Sys.Break, which [catching] reports after the
     telemetry finalizers have flushed partial artifacts *)
  Sys.catch_break true;
  let info =
    Cmd.info "bespoke_cli" ~version:"1.0"
      ~doc:"Bespoke processor tailoring (ISCA 2017 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_asm; cmd_run; cmd_analyze; cmd_tailor; cmd_report; cmd_verify;
            cmd_campaign; cmd_guard; cmd_stats; cmd_update_check; cmd_export;
            cmd_trace; cmd_bench_list;
          ]))
