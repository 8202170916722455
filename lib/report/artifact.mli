(** Machine-readable savings artifact: a schema-versioned JSON
    document reproducing the per-benchmark savings tables of the paper
    (gates / area / leakage / timing / Vmin, Figs. 5-9 and Table 2),
    plus the analysis statistics and the per-module attribution.

    The JSON is built with no external dependency and is validated in
    the [@report-smoke] check by the minimal reader in
    {!Bespoke_obs.Obs.Json}. *)

type entry = {
  name : string;  (** benchmark name *)
  group : string;
  gates_original : int;
  gates_cut : int;  (** never-toggled gates removed by Algorithm 1 *)
  gates_bespoke : int;  (** gates remaining after re-synthesis *)
  area_original : float;  (** um2 *)
  area_bespoke : float;
  leak_original : float;  (** nW at nominal supply *)
  leak_bespoke : float;
  critical_ps_original : float;
  critical_ps_bespoke : float;
  vmin : float;  (** V, from the exposed timing slack *)
  paths : int;
  merges : int;
  prunes : int;
  escapes : int;
  cycles : int;  (** symbolic cycles simulated by the analysis *)
  cut_reasons : (string * int) list;  (** {!Provenance.histogram} *)
  modules : Attribution.row list;
}

val schema : string
(** The version tag written to the ["schema"] field
    (["bespoke-report/v1"]); bump on any incompatible change. *)

val to_json : entry list -> string
(** The full artifact as one JSON object:
    [{"schema":..., "generator":..., "benchmarks":[...]}]. *)

val pp_text : Format.formatter -> entry list -> unit
(** The same content as a human-readable report. *)

(** {1 Analysis-only output} *)

val analysis_to_json :
  name:string ->
  paths:int -> merges:int -> prunes:int -> escapes:int -> cycles:int ->
  modules:(string * int * int) list ->
  string
(** Machine-readable [analyze] result: exploration statistics plus
    [(module, exercisable, total)] gate counts, tagged
    ["bespoke-analysis/v1"]. *)
