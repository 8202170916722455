(* The campaign engine: crash isolation (a raising job becomes an
   error record, every other job completes), JSONL schema, job-list
   parsing, warm-rerun caching, and input-order results. *)

module Campaign = Bespoke_campaign.Campaign
module Runner = Bespoke_core.Runner
module B = Bespoke_programs.Benchmark
module Json = Bespoke_obs.Obs.Json

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

let test_streaming_and_jsonl () =
  let lines = ref [] in
  let outcomes, summary =
    Campaign.run ~jobs:2
      ~on_outcome:(fun o -> lines := Campaign.outcome_jsonl o :: !lines)
      jobs_mixed
  in
  Alcotest.(check int) "one stream line per job" (List.length outcomes)
    (List.length !lines);
  let header =
    Json.parse
      (Campaign.header_jsonl ~jobs:2 ~cores:[ "msp430" ]
         ~total:summary.Campaign.total)
  in
  (match header with
  | Ok j ->
    Alcotest.(check bool) "schema" true
      (Json.member "schema" j = Some (Json.Str "bespoke-campaign/v1"))
  | Error m -> Alcotest.fail ("header does not parse: " ^ m));
  List.iter
    (fun line ->
      match Json.parse line with
      | Error m -> Alcotest.fail ("outcome line does not parse: " ^ m)
      | Ok j ->
        let has f = Json.member f j <> None in
        List.iter
          (fun f ->
            Alcotest.(check bool) (f ^ " present") true (has f))
          [ "job"; "kind"; "bench"; "status"; "time_s"; "cached" ];
        (match Json.member "status" j with
        | Some (Json.Str "ok") ->
          Alcotest.(check bool) "ok line has payload" true (has "payload")
        | Some (Json.Str "error") ->
          Alcotest.(check bool) "error line has error" true (has "error")
        | _ -> Alcotest.fail "status is neither ok nor error"))
    !lines;
  match Json.parse (Campaign.summary_jsonl summary) with
  | Ok j ->
    Alcotest.(check bool) "summary failed count" true
      (Json.member "failed" j = Some (Json.Num 2.0))
  | Error m -> Alcotest.fail ("summary does not parse: " ^ m)

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

let test_parse_line () =
  (match Campaign.parse_line "analyze mult" with
  | Ok (Some j) ->
    Alcotest.(check string) "kind" "analyze"
      (Campaign.kind_to_string j.Campaign.kind);
    Alcotest.(check string) "bench" "mult"
      (Campaign.program_name j.Campaign.program)
  | _ -> Alcotest.fail "plain line");
  (match Campaign.parse_line "  verify mult seed=7 faults=4 engine=full " with
  | Ok (Some j) ->
    Alcotest.(check int) "seed" 7 j.Campaign.seed;
    Alcotest.(check int) "faults" 4 j.Campaign.faults;
    Alcotest.(check string) "engine" "full"
      (Runner.engine_to_string j.Campaign.engine)
  | _ -> Alcotest.fail "options line");
  (match Campaign.parse_line "analyze mult engine=event" with
  | Error _ -> ()
  | _ -> Alcotest.fail "the removed event engine must be a parse error");
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
          Alcotest.test_case "streaming JSONL" `Quick test_streaming_and_jsonl;
          Alcotest.test_case "warm rerun is fully cached" `Quick
            test_warm_rerun_cached;
          Alcotest.test_case "job-list parsing" `Quick test_parse_line;
        ] );
    ]
