(* The campaign engine: crash isolation (a raising job becomes an
   error record, every other job completes), Ctrl-C interruption (a
   Sys.Break stops the campaign instead), JSONL schema, job-list
   parsing, warm-rerun caching, one shared cut per benchmark, and
   input-order results. *)

module Campaign = Bespoke_campaign.Campaign
module B = Bespoke_programs.Benchmark
module Flowcache = Bespoke_core.Flowcache
module Obs = Bespoke_obs.Obs
module Stats = Bespoke_obs.Stats

(* A benchmark whose execution raises mid-campaign: the source
   assembles, but input generation explodes when a job runs it. *)
let crashing =
  let mult = B.find "mult" in
  {
    mult with
    B.name = "crashing";
    description = "raises during input generation";
    gen_inputs = (fun _ -> failwith "deliberate mid-campaign crash");
  }

let jobs_mixed =
  [
    Campaign.job ~kind:Campaign.Analyze (Campaign.Named "mult");
    Campaign.job ~kind:Campaign.Run ~seed:2 (Campaign.Inline crashing);
    Campaign.job ~kind:Campaign.Tailor (Campaign.Named "mult");
    Campaign.job ~kind:Campaign.Analyze (Campaign.Named "no-such-bench");
    Campaign.job ~kind:Campaign.Run ~seed:2 (Campaign.Named "mult");
  ]

let test_crash_isolation () =
  List.iter
    (fun jobs ->
      let outcomes, summary = Campaign.run ~jobs jobs_mixed in
      Alcotest.(check int)
        (Printf.sprintf "total jobs=%d" jobs)
        5 summary.Campaign.total;
      Alcotest.(check int) "ok" 3 summary.Campaign.ok;
      Alcotest.(check int) "failed" 2 summary.Campaign.failed;
      (* outcomes in input order, each index matching its position *)
      List.iteri
        (fun i o -> Alcotest.(check int) "index" i o.Campaign.o_index)
        outcomes;
      let status_of i = (List.nth outcomes i).Campaign.status in
      Alcotest.(check bool) "job 0 ok" true (Result.is_ok (status_of 0));
      Alcotest.(check bool) "crashing job errors" true
        (Result.is_error (status_of 1));
      Alcotest.(check bool) "job after the crash ok" true
        (Result.is_ok (status_of 2));
      Alcotest.(check bool) "unknown benchmark errors" true
        (Result.is_error (status_of 3));
      Alcotest.(check bool) "last job ok" true (Result.is_ok (status_of 4));
      (match status_of 1 with
      | Error m ->
        Alcotest.(check bool) "error text survives" true
          (String.length m > 0)
      | Ok _ -> assert false))
    [ 1; 3 ]

(* A Ctrl-C (Sys.Break) struck inside a job is not that job's error:
   the campaign stops and re-raises it, and at jobs=1 no job after the
   struck one runs, so none of them emits an outcome. *)
let test_break_stops_campaign () =
  let interrupting =
    {
      crashing with
      B.name = "interrupting";
      gen_inputs = (fun _ -> raise Sys.Break);
    }
  in
  let js =
    [
      Campaign.job ~kind:Campaign.Run ~seed:2 (Campaign.Named "mult");
      Campaign.job ~kind:Campaign.Run ~seed:2 (Campaign.Inline interrupting);
      Campaign.job ~kind:Campaign.Analyze (Campaign.Named "mult");
      Campaign.job ~kind:Campaign.Run ~seed:3 (Campaign.Named "mult");
    ]
  in
  List.iter
    (fun jobs ->
      let emitted = ref [] in
      (match
         Campaign.run ~jobs
           ~on_event:(fun ev _ ->
             match ev with
             | Campaign.Job_finished o -> emitted := o.Campaign.o_index :: !emitted
             | Campaign.Job_started _ -> ())
           js
       with
      | _ -> Alcotest.failf "jobs=%d: expected Sys.Break" jobs
      | exception Sys.Break -> ());
      Alcotest.(check bool) "the struck job emits no outcome" false
        (List.mem 1 !emitted);
      if jobs = 1 then
        Alcotest.(check (list int)) "only the job before it emitted" [ 0 ]
          !emitted)
    [ 1; 2 ]

let test_streaming_and_jsonl () =
  let lines = ref [] in
  let outcomes, summary =
    Campaign.run ~jobs:2
      ~on_event:(fun ev _ ->
        match ev with
        | Campaign.Job_finished o -> lines := Campaign.outcome_jsonl o :: !lines
        | Campaign.Job_started _ -> ())
      jobs_mixed
  in
  Alcotest.(check int) "one stream line per job" (List.length outcomes)
    (List.length !lines);
  (* header, records and summary make a stream the campaign reader
     accepts: one record per job, ok/error records well formed, the
     summary's counts agreeing with the records *)
  let stream =
    String.concat "\n"
      ((Campaign.header_jsonl ~jobs:2 ~cores:[ "msp430" ]
          ~total:summary.Campaign.total
       :: List.rev !lines)
      @ [ Campaign.summary_jsonl summary ])
  in
  match Stats.read ~name:"campaign stream" stream with
  | Ok (Stats.Campaign c) ->
    Alcotest.(check int) "summary failed count" 2 c.Stats.c_failed
  | Ok _ -> Alcotest.fail "stream read as another kind"
  | Error m -> Alcotest.fail m

let test_warm_rerun_cached () =
  let jobs =
    [
      Campaign.job ~kind:Campaign.Analyze (Campaign.Named "mult");
      Campaign.job ~kind:Campaign.Tailor (Campaign.Named "mult");
    ]
  in
  ignore (Campaign.run ~jobs:1 jobs);
  let outcomes, summary = Campaign.run ~jobs:1 jobs in
  Alcotest.(check int) "all jobs served from the flow cache"
    summary.Campaign.total summary.Campaign.cache_hits;
  List.iter
    (fun o -> Alcotest.(check bool) "cached flag" true o.Campaign.cached)
    outcomes

(* Every job kind that consumes a tailored design takes it from
   [Runner.tailor_cached]: a cold campaign of tailor, report, guard and
   verify jobs for one benchmark cuts it exactly once. *)
let test_one_cut_per_benchmark () =
  let tailor_misses () =
    List.fold_left
      (fun acc s ->
        if s.Flowcache.s_name = "tailor" then acc + s.Flowcache.s_misses
        else acc)
      0 (Flowcache.stats_all ())
  in
  Flowcache.clear_all ();
  let misses0 = tailor_misses () in
  Obs.reset ();
  Obs.enable ();
  let _, summary =
    Fun.protect ~finally:Obs.disable (fun () ->
        Campaign.run ~jobs:2
          (List.map
             (fun kind ->
               Campaign.job ~kind ~faults:1 (Campaign.Named "tHold"))
             Campaign.[ Tailor; Report; Guard; Verify ]))
  in
  Alcotest.(check int) "all jobs ok" 4 summary.Campaign.ok;
  let cuts =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) ->
           e.Obs.Trace.name = "cut.tailor" && e.ph = 'B')
         (Obs.Trace.events ()))
  in
  Alcotest.(check int) "one cut.tailor span" 1 cuts;
  Alcotest.(check int) "one tailoring-cache miss" 1
    (tailor_misses () - misses0);
  Alcotest.(check bool) "no campaign-private tailoring cache" false
    (List.exists
       (fun s -> s.Flowcache.s_name = "campaign.tailor")
       (Flowcache.stats_all ()))

let test_parse_line () =
  (match Campaign.parse_line "analyze mult" with
  | Ok (Some j) ->
    Alcotest.(check string) "kind" "analyze"
      (Campaign.kind_to_string j.Campaign.kind);
    Alcotest.(check string) "bench" "mult"
      (Campaign.program_name j.Campaign.program)
  | _ -> Alcotest.fail "plain line");
  (match Campaign.parse_line "  verify mult seed=7 faults=4 mutant=2 " with
  | Ok (Some j) ->
    Alcotest.(check int) "seed" 7 j.Campaign.seed;
    Alcotest.(check int) "faults" 4 j.Campaign.faults;
    Alcotest.(check int) "mutant" 2 j.Campaign.mutant
  | _ -> Alcotest.fail "options line");
  (match Campaign.parse_line "verify mult engine=full" with
  | Error _ -> ()
  | _ -> Alcotest.fail "the removed engine= key must be a parse error");
  (match Campaign.parse_line "# a comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment line");
  (match Campaign.parse_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank line");
  (match Campaign.parse_line "tailor mult seed=xyz" with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad seed must be a parse error");
  match Campaign.parse_line "frobnicate mult" with
  | Error _ -> ()
  | _ -> Alcotest.fail "unknown kind must be a parse error"

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "Sys.Break stops the campaign" `Quick
            test_break_stops_campaign;
          Alcotest.test_case "streaming JSONL" `Quick test_streaming_and_jsonl;
          Alcotest.test_case "warm rerun is fully cached" `Quick
            test_warm_rerun_cached;
          Alcotest.test_case "one cut per benchmark" `Quick
            test_one_cut_per_benchmark;
          Alcotest.test_case "job-list parsing" `Quick test_parse_line;
        ] );
    ]
