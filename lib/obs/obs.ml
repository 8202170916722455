(* Telemetry core: per-domain span buffers, an atomic metrics
   registry, Chrome-trace JSONL export.  See obs.mli for the contract;
   the key invariant is that nothing here allocates or locks unless
   the [on] flag is set. *)

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let t0 = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. t0) *. 1e6
let now_ns () = int_of_float (now_us () *. 1e3)

(* the domain this module was initialised in — named "main" in trace
   exports unless renamed *)
let main_tid = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* JSON: the one encoder and the one reader every artifact goes
   through (no external JSON dependency)                              *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* Encoders build already-encoded JSON text, so a raw value (a
     trace's %.3f timestamp, a stored payload field) composes with
     encoded ones unchanged. *)

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let str s = "\"" ^ escape s ^ "\""

  let num f =
    (* JSON has no NaN/Infinity; clamp those to zero *)
    if not (Float.is_finite f) then "0"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f

  let int = string_of_int
  let bool b = if b then "true" else "false"
  let arr items = "[" ^ String.concat "," items ^ "]"

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail m = raise (Bad (Printf.sprintf "%s at offset %d" m !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "bad \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* keep it simple: BMP code points as UTF-8 *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4;
              go ())
          | _ -> fail "bad escape")
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad m -> Error m

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let mem_str k j = match member k j with Some (Str s) -> Some s | _ -> None
  let mem_num k j = match member k j with Some (Num f) -> Some f | _ -> None
  let mem_bool k j = match member k j with Some (Bool b) -> Some b | _ -> None
  let mem_arr k j = match member k j with Some (Arr l) -> Some l | _ -> None
  let mem_obj k j = match member k j with Some (Obj l) -> Some l | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Trace buffers                                                       *)

module Trace = struct
  type event = {
    name : string;
    ph : char;
    ts_us : float;
    tid : int;
    args : (string * string) list;
  }

  let dummy = { name = ""; ph = 'i'; ts_us = 0.0; tid = 0; args = [] }

  type buf = {
    tid : int;
    mutable thread_name : string;  (* "" = default naming at export *)
    mutable evs : event array;
    mutable len : int;
    mutable last_ts : float;
  }

  let mu = Mutex.create ()
  let buffers : buf list ref = ref []

  let key =
    Domain.DLS.new_key (fun () ->
        let b =
          {
            tid = (Domain.self () :> int);
            thread_name = "";
            evs = Array.make 256 dummy;
            len = 0;
            last_ts = 0.0;
          }
        in
        Mutex.protect mu (fun () -> buffers := b :: !buffers);
        b)

  (* Name the current domain's track in trace exports (Chrome-trace
     thread_name metadata).  Cheap and unconditional — a name set
     while collection is off still labels later events. *)
  let set_thread_name name = (Domain.DLS.get key).thread_name <- name

  let thread_names () =
    Mutex.protect mu (fun () ->
        List.rev_map (fun b -> (b.tid, b.thread_name)) !buffers)

  let emit name ph args =
    let b = Domain.DLS.get key in
    if b.len = Array.length b.evs then begin
      let evs = Array.make (2 * b.len) dummy in
      Array.blit b.evs 0 evs 0 b.len;
      b.evs <- evs
    end;
    (* wall clock can step backwards (NTP); clamp per buffer so span
       begin/end pairs always nest with non-decreasing timestamps *)
    let ts = now_us () in
    let ts = if ts < b.last_ts then b.last_ts else ts in
    b.last_ts <- ts;
    b.evs.(b.len) <- { name; ph; ts_us = ts; tid = b.tid; args };
    b.len <- b.len + 1

  let events () =
    let all =
      Mutex.protect mu (fun () ->
          List.concat_map
            (fun b -> Array.to_list (Array.sub b.evs 0 b.len))
            !buffers)
    in
    List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us) all

  let clear () =
    Mutex.protect mu (fun () ->
        List.iter
          (fun b ->
            b.len <- 0;
            b.last_ts <- 0.0)
          !buffers)

  let event_json ~name ~ph ~ts ~tid args =
    Json.obj
      ([
         ("name", Json.str name);
         ("cat", Json.str "bespoke");
         ("ph", Json.str (String.make 1 ph));
         ("ts", ts);
         ("pid", "0");
         ("tid", Json.int tid);
       ]
      @
      if args = [] then []
      else [ ("args", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) args)) ])

  (* Chrome-trace metadata ([ph:"M"]) naming the process and one track
     per domain, so Perfetto shows "pool-worker-N" instead of a bare
     domain id.  Only emitted when the trace has real events — an
     empty trace stays empty. *)
  let metadata () =
    let meta tid kind label = event_json ~name:kind ~ph:'M' ~ts:"0" ~tid [ ("name", label) ] in
    meta 0 "process_name" "bespoke"
    :: List.map
         (fun (tid, name) ->
           meta tid "thread_name"
             (if name <> "" then name
              else if tid = main_tid then "main"
              else Printf.sprintf "domain-%d" tid))
         (List.sort compare (thread_names ()))

  (* Spans still open at export — a pool worker parked in [pool.idle],
     a run cut short by an early exit — are closed by a synthesized end
     event at the trace's last timestamp, marked [truncated], so every
     track's B/E events balance. *)
  let close_open (evs : event list) =
    let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
    let last_ts = ref 0.0 in
    List.iter
      (fun (e : event) ->
        last_ts := e.ts_us;
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
        match (e.ph, stack) with
        | 'B', _ -> Hashtbl.replace stacks e.tid (e.name :: stack)
        | 'E', _ :: rest -> Hashtbl.replace stacks e.tid rest
        | _ -> ())
      evs;
    Hashtbl.fold
      (fun tid stack acc ->
        List.map
          (fun name ->
            { name; ph = 'E'; ts_us = !last_ts; tid; args = [ ("truncated", "true") ] })
          stack
        @ acc)
      stacks []
    |> List.stable_sort (fun (a : event) b -> compare a.tid b.tid)

  let to_jsonl () =
    match events () with
    | [] -> ""
    | evs ->
      let lines =
        metadata ()
        @ List.map
            (fun e ->
              event_json ~name:e.name ~ph:e.ph ~ts:(Printf.sprintf "%.3f" e.ts_us)
                ~tid:e.tid e.args)
            (evs @ close_open evs)
      in
      String.concat "\n" lines ^ "\n"

  let write_jsonl path =
    let oc = open_out path in
    output_string oc (to_jsonl ());
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

module Span = struct
  let with_ ?(args = []) ~name f =
    if not (enabled ()) then f ()
    else begin
      Trace.emit name 'B' args;
      Fun.protect ~finally:(fun () -> Trace.emit name 'E' []) f
    end

  let with_alloc ~name f =
    if not (enabled ()) then f ()
    else begin
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let w0 = allocated () in
      Trace.emit name 'B' [];
      Fun.protect
        ~finally:(fun () ->
          Trace.emit name 'E'
            [ ("alloc_words", Printf.sprintf "%.0f" (allocated () -. w0)) ])
        f
    end

  let instant ?(args = []) name =
    if enabled () then Trace.emit name 'i' args
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

module Metrics = struct
  type counter = int Atomic.t
  type gauge = float Atomic.t

  type histogram = {
    h_count : int Atomic.t;
    h_sum : int Atomic.t;
    h_min : int Atomic.t;
    h_max : int Atomic.t;
    buckets : int Atomic.t array;  (* bucket b: values in [2^(b-1), 2^b) *)
  }

  type metric = C of counter | G of gauge | H of histogram

  let mu = Mutex.create ()
  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

  let register name make =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt registry name with
        | Some m -> m
        | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          m)

  let counter name =
    match register name (fun () -> C (Atomic.make 0)) with
    | C c -> c
    | _ -> invalid_arg (Printf.sprintf "Obs.Metrics.counter %S: kind mismatch" name)

  let gauge name =
    match register name (fun () -> G (Atomic.make 0.0)) with
    | G g -> g
    | _ -> invalid_arg (Printf.sprintf "Obs.Metrics.gauge %S: kind mismatch" name)

  let histogram name =
    let make () =
      H
        {
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_min = Atomic.make max_int;
          h_max = Atomic.make min_int;
          buckets = Array.init 63 (fun _ -> Atomic.make 0);
        }
    in
    match register name make with
    | H h -> h
    | _ ->
      invalid_arg (Printf.sprintf "Obs.Metrics.histogram %S: kind mismatch" name)

  let add c n = if enabled () then ignore (Atomic.fetch_and_add c n)
  let incr c = add c 1
  let counter_value = Atomic.get
  let set g v = if enabled () then Atomic.set g v

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 in
      let v = ref v in
      while !v > 0 do
        v := !v lsr 1;
        b := !b + 1
      done;
      min 62 !b
    end

  let rec atomic_update a f =
    let old = Atomic.get a in
    let v = f old in
    if v <> old && not (Atomic.compare_and_set a old v) then atomic_update a f

  let observe h v =
    if enabled () then begin
      let v = max 0 v in
      ignore (Atomic.fetch_and_add h.h_count 1);
      ignore (Atomic.fetch_and_add h.h_sum v);
      ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
      atomic_update h.h_min (fun m -> min m v);
      atomic_update h.h_max (fun m -> max m v)
    end

  let lap h since =
    let now = now_ns () in
    observe h (now - since);
    now

  let histogram_count h = Atomic.get h.h_count

  let percentile h p =
    let total = Atomic.get h.h_count in
    if total = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let target =
        max 1 (int_of_float (Float.round (p *. float_of_int total)))
      in
      let cum = ref 0 in
      let b = ref 0 in
      (try
         for i = 0 to Array.length h.buckets - 1 do
           cum := !cum + Atomic.get h.buckets.(i);
           if !cum >= target then begin
             b := i;
             raise Exit
           end
         done;
         b := Array.length h.buckets - 1
       with Exit -> ());
      (* geometric midpoint of bucket [2^(b-1), 2^b), clamped to the
         exactly observed range *)
      let rep =
        if !b = 0 then 0.0
        else 0.75 *. Float.of_int (1 lsl !b)
      in
      let lo = float_of_int (Atomic.get h.h_min)
      and hi = float_of_int (Atomic.get h.h_max) in
      Float.max lo (Float.min hi rep)
    end

  let names () =
    List.sort String.compare
      (Mutex.protect mu (fun () ->
           Hashtbl.fold (fun k _ acc -> k :: acc) registry []))

  let snapshot_json () =
    let entries =
      Mutex.protect mu (fun () ->
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [])
    in
    let entries =
      List.sort (fun (a, _) (b, _) -> String.compare a b) entries
    in
    let section keep pp =
      Json.obj
        (List.filter_map
           (fun (name, m) -> Option.map (fun v -> (name, pp v)) (keep m))
           entries)
    in
    Json.obj
      [
        ( "counters",
          section
            (function C c -> Some c | _ -> None)
            (fun c -> Json.int (Atomic.get c)) );
        ( "gauges",
          section
            (function G g -> Some g | _ -> None)
            (fun g -> Json.num (Atomic.get g)) );
        ( "histograms",
          section
            (function H h -> Some h | _ -> None)
            (fun h ->
              let count = Atomic.get h.h_count in
              Json.obj
                [
                  ("count", Json.int count);
                  ("sum", Json.int (Atomic.get h.h_sum));
                  ("min", Json.int (if count = 0 then 0 else Atomic.get h.h_min));
                  ("max", Json.int (if count = 0 then 0 else Atomic.get h.h_max));
                  ("p50", Json.num (percentile h 0.5));
                  ("p90", Json.num (percentile h 0.9));
                  ("p99", Json.num (percentile h 0.99));
                ]) );
      ]

  let reset () =
    Mutex.protect mu (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | C c -> Atomic.set c 0
            | G g -> Atomic.set g 0.0
            | H h ->
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum 0;
              Atomic.set h.h_min max_int;
              Atomic.set h.h_max min_int;
              Array.iter (fun b -> Atomic.set b 0) h.buckets)
          registry)
end

let reset () =
  Trace.clear ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Background metrics sampler: a ticker domain that snapshots the
   whole registry every [interval_ms] into a schema-versioned JSONL
   time series.  One header line, then one record per sample; the
   first sample is taken synchronously in [start] and a final one in
   [stop], so even a short run yields >= 2 snapshots.               *)

module Sampler = struct
  let schema = "bespoke-metrics/v1"

  (* Probes run just before each snapshot; subsystems register one to
     refresh gauges whose value is derived state (e.g. the pool's
     queue depth) rather than written at every change. *)
  let probes_mu = Mutex.create ()
  let probes : (unit -> unit) list ref = ref []

  let add_probe f =
    Mutex.protect probes_mu (fun () -> probes := f :: !probes)

  let run_probes () =
    let ps = Mutex.protect probes_mu (fun () -> !probes) in
    List.iter (fun f -> try f () with _ -> ()) ps

  type state = {
    oc : out_channel;
    s_path : string;
    mutable seq : int;
    stop_flag : bool Atomic.t;
    mutable ticker : unit Domain.t option;
    io_lock : Mutex.t;  (* ticker and stop both write *)
  }

  let mu = Mutex.create ()
  let current : state option ref = ref None

  let snapshot_line ~seq =
    Json.obj
      [
        ("seq", Json.int seq);
        ("ts_us", Json.num (now_us ()));
        ("metrics", Metrics.snapshot_json ());
      ]

  let emit st =
    run_probes ();
    Mutex.protect st.io_lock (fun () ->
        output_string st.oc (snapshot_line ~seq:st.seq);
        output_char st.oc '\n';
        flush st.oc;
        st.seq <- st.seq + 1)

  let running () = Mutex.protect mu (fun () -> Option.is_some !current)
  let path () = Mutex.protect mu (fun () -> Option.map (fun s -> s.s_path) !current)

  let stop () =
    let st =
      Mutex.protect mu (fun () ->
          let s = !current in
          current := None;
          s)
    in
    match st with
    | None -> ()
    | Some st ->
      Atomic.set st.stop_flag true;
      Option.iter Domain.join st.ticker;
      emit st;
      close_out st.oc

  let stop_at_exit_registered = Atomic.make false

  let start ?(path = "bespoke_metrics.jsonl") ~interval_ms () =
    let interval_ms = max 1 interval_ms in
    enable ();
    (* a crashed or [exit]ed run still closes the series cleanly *)
    if not (Atomic.exchange stop_at_exit_registered true) then
      at_exit (fun () -> try stop () with Sys_error _ -> ());
    Mutex.protect mu (fun () ->
        match !current with
        | Some _ -> ()  (* already sampling; keep the running series *)
        | None ->
          let oc = open_out path in
          output_string oc
            (Json.obj
               [ ("schema", Json.str schema); ("interval_ms", Json.int interval_ms) ]);
          output_char oc '\n';
          let st =
            {
              oc;
              s_path = path;
              seq = 0;
              stop_flag = Atomic.make false;
              ticker = None;
              io_lock = Mutex.create ();
            }
          in
          emit st;
          let ticker =
            Domain.spawn (fun () ->
                let interval_s = float_of_int interval_ms /. 1000.0 in
                let rec loop () =
                  (* chunked sleep so [stop] never waits a full
                     interval to join *)
                  let slept = ref 0.0 in
                  while
                    (not (Atomic.get st.stop_flag)) && !slept < interval_s
                  do
                    let chunk = Float.min 0.02 (interval_s -. !slept) in
                    Unix.sleepf chunk;
                    slept := !slept +. chunk
                  done;
                  if not (Atomic.get st.stop_flag) then begin
                    emit st;
                    loop ()
                  end
                in
                loop ())
          in
          st.ticker <- Some ticker;
          current := Some st)
end

(* ------------------------------------------------------------------ *)
(* BESPOKE_TRACE: enable collection from the environment; a path-like
   value additionally writes the JSONL trace there at exit.           *)

let () =
  match Sys.getenv_opt "BESPOKE_TRACE" with
  | None | Some "" | Some "0" -> ()
  | Some v ->
    enable ();
    (match String.lowercase_ascii v with
    | "1" | "true" | "yes" | "on" -> ()
    | _ -> at_exit (fun () -> try Trace.write_jsonl v with Sys_error _ -> ()))
