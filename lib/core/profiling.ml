module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate
module Benchmark = Bespoke_programs.Benchmark
module Obs = Bespoke_obs.Obs

let m_runs = Obs.Metrics.counter "profiling.runs"
let m_lanes_packed = Obs.Metrics.counter "profiling.lanes_packed"

type t = {
  per_seed_toggled : (int * bool array) list;
  union_toggled : bool array;
  intersection_untoggled : bool array;
  total_toggles : int array;
  total_cycles : int;
}

let profile ?netlist ?(seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) ~core b =
  Obs.Span.with_ ~name:"profiling.profile"
    ~args:[ ("benchmark", b.Benchmark.name) ]
    (fun () ->
  let net =
    match netlist with Some n -> n | None -> Runner.shared_netlist core
  in
  let ng = Netlist.gate_count net in
  let union = Array.make ng false in
  let inter_untoggled = Array.make ng true in
  let totals = Array.make ng 0 in
  let cycles = ref 0 in
  Obs.Metrics.incr m_runs;
  (* Every seed runs in one bit-parallel packed simulation, which is
     bit-identical to a scalar run per seed. *)
  Obs.Metrics.add m_lanes_packed (List.length seeds);
  let outcomes = Runner.run_gate_packed ~netlist:net ~core b ~seeds in
  let per_seed =
    List.map
      (fun (seed, o) ->
        let toggled = Array.map (fun c -> c > 0) o.Runner.toggles in
        Array.iteri
          (fun i c ->
            totals.(i) <- totals.(i) + c;
            if toggled.(i) then begin
              union.(i) <- true;
              inter_untoggled.(i) <- false
            end)
          o.Runner.toggles;
        cycles := !cycles + o.Runner.sim_cycles;
        (seed, toggled))
      outcomes
  in
  {
    per_seed_toggled = per_seed;
    union_toggled = union;
    intersection_untoggled = inter_untoggled;
    total_toggles = totals;
    total_cycles = !cycles;
  })

let untoggled_fraction_range net t =
  let real = ref 0 in
  Array.iter
    (fun (g : Gate.t) ->
      match g.Gate.op with Gate.Input | Gate.Const _ -> () | _ -> incr real)
    net.Netlist.gates;
  let frac_untoggled toggled =
    let n = ref 0 in
    Array.iteri
      (fun i (g : Gate.t) ->
        match g.Gate.op with
        | Gate.Input | Gate.Const _ -> ()
        | _ -> if not toggled.(i) then incr n)
      net.Netlist.gates;
    float_of_int !n /. float_of_int (max 1 !real)
  in
  let per_run = List.map (fun (_, tg) -> frac_untoggled tg) t.per_seed_toggled in
  let mn = List.fold_left Float.min 1.0 per_run in
  let mx = List.fold_left Float.max 0.0 per_run in
  let inter = frac_untoggled (Array.map not t.intersection_untoggled) in
  (mn, mx, inter)
