(* The persistent shared-queue pool and the content-addressed flow
   cache: result-order determinism under parallelism, nested
   submission, full exception collection, Ctrl-C interruption, and
   cache hit/miss correctness across config changes. *)

module Pool = Bespoke_core.Pool
module Flowcache = Bespoke_core.Flowcache
module Runner = Bespoke_core.Runner
module Activity = Bespoke_analysis.Activity
module B = Bespoke_programs.Benchmark
module Mutation = Bespoke_mutation.Mutation
let core = Bespoke_cpu.Msp430.core

let test_map_matches_list_map () =
  let xs = List.init 200 (fun i -> i) in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 8 ]

let test_map_deterministic_order () =
  (* tasks finish out of order (the sleeps skew completion across
     domains), results still come back in input order *)
  let xs = List.init 40 (fun i -> i) in
  for _ = 1 to 5 do
    let got =
      Pool.map ~jobs:4
        (fun x ->
          if x mod 7 = 0 then Unix.sleepf 0.002;
          2 * x)
        xs
    in
    Alcotest.(check (list int)) "order" (List.map (fun x -> 2 * x) xs) got
  done

let test_nested_maps () =
  let outer = List.init 6 (fun i -> i) in
  let got =
    Pool.map ~jobs:3
      (fun i ->
        let inner = List.init 25 (fun j -> j) in
        List.fold_left ( + ) 0 (Pool.map ~jobs:2 (fun j -> (i * j) + 1) inner))
      outer
  in
  let expect =
    List.map
      (fun i ->
        List.fold_left ( + ) 0 (List.init 25 (fun j -> (i * j) + 1)))
      outer
  in
  Alcotest.(check (list int)) "nested" expect got

let test_all_errors_collected () =
  let xs = List.init 20 (fun i -> i) in
  let run jobs =
    match
      Pool.map ~jobs
        (fun x -> if x mod 2 = 1 then failwith (string_of_int x) else x)
        xs
    with
    | _ -> Alcotest.fail "expected Task_errors"
    | exception Pool.Task_errors errs ->
      let idxs = List.map fst errs in
      Alcotest.(check (list int))
        (Printf.sprintf "failed indices jobs=%d" jobs)
        [ 1; 3; 5; 7; 9; 11; 13; 15; 17; 19 ]
        idxs;
      List.iter
        (fun (i, e) ->
          match e with
          | Failure m ->
            Alcotest.(check string) "payload" (string_of_int i) m
          | _ -> Alcotest.fail "expected Failure")
        errs
  in
  (* uniform semantics: sequential and parallel both report every
     failed task, sorted by input index *)
  run 1;
  run 4

let test_task_errors_printer () =
  match Pool.iter ~jobs:2 (fun _ -> failwith "boom") [ 1; 2; 3 ] with
  | () -> Alcotest.fail "expected Task_errors"
  | exception e ->
    let s = Printexc.to_string e in
    Alcotest.(check bool) "printer used" true
      (String.length s >= 16 && String.sub s 0 16 = "Pool.Task_errors")

(* The contract at any job count: [Pool.map] equals [List.map], or
   raises [Task_errors] naming exactly the failing indices, sorted —
   the same answer as the sequential path. *)
let prop_map_contract =
  QCheck.Test.make ~name:"map = List.map or the sequential Task_errors"
    ~count:100
    QCheck.(
      triple (int_range 1 4)
        (small_list small_int)
        (small_list (int_bound 30)))
    (fun (jobs, xs, failing) ->
      let f (i, x) = if List.mem i failing then failwith "boom" else x + 1 in
      let run jobs =
        match Pool.map ~jobs f (List.mapi (fun i x -> (i, x)) xs) with
        | ys -> Ok ys
        | exception Pool.Task_errors errs -> Error (List.map fst errs)
      in
      let expect =
        match List.filter (fun i -> i < List.length xs) failing with
        | [] -> Ok (List.map (fun x -> x + 1) xs)
        | bad -> Error (List.sort_uniq compare bad)
      in
      run jobs = expect && run 1 = expect)

(* A task raising Sys.Break (a Ctrl-C) stops its map: [map] re-raises
   Sys.Break rather than collecting it into Task_errors, and at jobs=1
   no task queued behind the struck one starts. *)
let test_break_stops_map () =
  List.iter
    (fun jobs ->
      let started = Atomic.make 0 in
      let run () =
        Pool.map ~jobs
          (fun x ->
            Atomic.incr started;
            if x = 3 then raise Sys.Break;
            if x = 5 then failwith "an ordinary failure";
            x)
          (List.init 20 (fun i -> i))
      in
      (match run () with
      | _ -> Alcotest.fail "expected Sys.Break"
      | exception Sys.Break -> ()
      | exception e ->
        Alcotest.failf "jobs=%d: expected Sys.Break, got %s" jobs
          (Printexc.to_string e));
      if jobs = 1 then
        Alcotest.(check int) "no task after the struck one starts" 4
          (Atomic.get started);
      (* the pool stays usable after an interrupted map *)
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: next map" jobs)
        [ 2; 4; 6 ]
        (Pool.map ~jobs (fun x -> 2 * x) [ 1; 2; 3 ]))
    [ 1; 2 ]

let test_jobs_override () =
  let hw = Domain.recommended_domain_count () in
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override, hardware-clamped" (max 1 (min 3 hw))
    (Pool.default_jobs ());
  Pool.set_default_jobs 0;
  Alcotest.(check int) "floor of 1" 1 (Pool.default_jobs ());
  Alcotest.(check int) "clamp_jobs floor" 1 (Pool.clamp_jobs 0);
  Alcotest.(check int) "clamp_jobs cap" (max 1 hw) (Pool.clamp_jobs 1_000);
  Pool.set_default_jobs saved

let test_domains_persist () =
  ignore (Pool.map ~jobs:3 (fun x -> x) [ 1; 2; 3; 4 ]);
  let d1 = Pool.domain_count () in
  Alcotest.(check bool) "workers spawned" true (d1 >= 2);
  ignore (Pool.map ~jobs:3 (fun x -> x) [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "workers reused, not respawned" d1 (Pool.domain_count ())

(* ---- flow cache ---- *)

let test_flowcache_hit_miss () =
  let c = Flowcache.create ~name:"test.basic" () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    !calls
  in
  let v1, hit1 = Flowcache.find_or_compute_report c ~key:"k1" compute in
  let v2, hit2 = Flowcache.find_or_compute_report c ~key:"k1" compute in
  Alcotest.(check (pair int bool)) "first is a miss" (1, false) (v1, hit1);
  Alcotest.(check (pair int bool)) "second is a hit" (1, true) (v2, hit2);
  let v3, hit3 = Flowcache.find_or_compute_report c ~key:"k2" compute in
  Alcotest.(check (pair int bool)) "new key misses" (2, false) (v3, hit3);
  Alcotest.(check int) "hits" 1 (Flowcache.hits c);
  Alcotest.(check int) "misses" 2 (Flowcache.misses c);
  Flowcache.clear c;
  let v4, hit4 = Flowcache.find_or_compute_report c ~key:"k1" compute in
  Alcotest.(check (pair int bool)) "cleared -> miss" (3, false) (v4, hit4)

let test_flowcache_capacity () =
  let c = Flowcache.create ~capacity:2 ~name:"test.cap" () in
  let get k = Flowcache.find_or_compute c ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  Alcotest.(check int) "capacity bound" 2 (Flowcache.length c);
  (* "a" was evicted (FIFO), so it recomputes *)
  let _, hit = Flowcache.find_or_compute_report c ~key:"a" (fun () -> "a") in
  Alcotest.(check bool) "oldest evicted" false hit

let test_flowcache_digest_distinct () =
  (* the NUL separator keeps part boundaries unambiguous *)
  Alcotest.(check bool) "parts not concatenated" false
    (Flowcache.digest [ "ab"; "c" ] = Flowcache.digest [ "a"; "bc" ])

(* Pool tasks look up Runner's per-core memos: concurrent lookups must
   neither lose an entry nor build a second stock netlist. *)
let test_runner_memos_from_domains () =
  let progs =
    List.concat_map
      (fun b -> List.map (Mutation.to_benchmark b) (Mutation.mutants b))
      B.table1
    |> List.filteri (fun i _ -> i < 120)
  in
  Alcotest.(check bool) "at least 100 distinct sources" true
    (List.length
       (List.sort_uniq compare (List.map (fun p -> p.B.source) progs))
    >= 100);
  let got =
    Pool.map ~jobs:4
      (fun p -> (Runner.image ~core p, Runner.shared_netlist core))
      progs
  in
  List.iter2
    (fun p (img, net) ->
      Alcotest.(check bool) "one image per source" true
        (img == Runner.image ~core p);
      Alcotest.(check bool) "one stock netlist" true
        (net == Runner.shared_netlist core))
    progs got

let test_analyze_cached_config_change () =
  let b = B.find "mult" in
  let (r1, _), hit1 = Runner.analyze_cached ~core b in
  let (r2, _), hit2 = Runner.analyze_cached ~core b in
  Alcotest.(check bool) "second analysis hits" true ((not hit1) || hit2);
  Alcotest.(check bool) "repeat analysis is a hit" true hit2;
  Alcotest.(check int) "same report" r1.Activity.paths r2.Activity.paths;
  (* a config change must miss: same program, different key *)
  let config =
    { (Runner.resolve_analysis_config b) with Activity.max_total_cycles = 4_999 }
  in
  let (r3, _), hit3 = Runner.analyze_cached ~core ~config b in
  Alcotest.(check bool) "changed config misses" false hit3;
  let (_, _), hit4 = Runner.analyze_cached ~core ~config b in
  Alcotest.(check bool) "changed config then hits" true hit4;
  Alcotest.(check int) "mult still fits the budget" r1.Activity.paths
    r3.Activity.paths

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches List.map" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "deterministic result order" `Quick
            test_map_deterministic_order;
          Alcotest.test_case "nested maps" `Quick test_nested_maps;
          Alcotest.test_case "all task errors collected" `Quick
            test_all_errors_collected;
          Alcotest.test_case "Task_errors printer" `Quick
            test_task_errors_printer;
          QCheck_alcotest.to_alcotest prop_map_contract;
          Alcotest.test_case "Sys.Break stops a map" `Quick
            test_break_stops_map;
          Alcotest.test_case "set_default_jobs override" `Quick
            test_jobs_override;
          Alcotest.test_case "domains persist across maps" `Quick
            test_domains_persist;
          Alcotest.test_case "Runner memos from many domains" `Quick
            test_runner_memos_from_domains;
        ] );
      ( "flowcache",
        [
          Alcotest.test_case "hit/miss/clear" `Quick test_flowcache_hit_miss;
          Alcotest.test_case "capacity eviction" `Quick test_flowcache_capacity;
          Alcotest.test_case "digest part boundaries" `Quick
            test_flowcache_digest_distinct;
          Alcotest.test_case "analysis cache across config change" `Quick
            test_analyze_cached_config_change;
        ] );
    ]
