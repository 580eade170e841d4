(** The offline recovery-map compiler ([rtr_sim precompute]).

    For every enumerated failure scenario this runs RTR — phase 1 plus
    phase 2 over the shared {!Rtr_sim.Topo_cache} route table, one
    session per (initiator, trigger) — and
    records, per test case, exactly what the reactive protocol would
    answer at recovery time: outcome kind, the emitted source route,
    its cost in the initiator's view, and the true damaged-graph
    shortest cost (the stretch denominator).

    Scenario evaluation shards over [Rtr_sim.Parallel.map]; results
    come back in submission order and assembly is sequential, so the
    artifact is byte-identical at any [--jobs] (the PR 3 merge
    discipline).  Instrumented as [rmap.compile] spans plus
    [rmap.scenarios] / [rmap.cases] counters and
    [rmap.artifact_bytes] / [rmap.precompute_cases_per_sec] gauges. *)

module Graph = Rtr_graph.Graph

val eval_links :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Graph.link_id list ->
  Store.case array
(** The per-scenario kernel: canonical link-set damage
    ([Damage.of_failed ~nodes:[]]), [Scenario.cases_of_damage], one RTR
    session per (initiator, trigger).  Also the reactive fallback the
    lookup service runs on a signature miss, so hit and miss answers
    agree by construction. *)

type result = {
  artifact : string;  (** the encoded [rmap/1] blob *)
  manifest : Rtr_obs.Json.t;
  stats : Enum.stats;
  n_scenarios : int;
  n_cases : int;
  wall_s : float;
}

val run :
  ?log:(string -> unit) ->
  ?jobs:int ->
  Rtr_topo.Topology.t ->
  Enum.config ->
  result
(** Enumerate, evaluate (sharded over [jobs] domains, default 1),
    encode.  The manifest is a JSON object ([format =
    "rmap-manifest/1"]) recording the topology, enumeration config and
    stats, artifact size and an FNV-1a 64-bit content hash. *)

val fnv64_hex : string -> string
(** The manifest's content hash (FNV-1a, 64-bit, lower-case hex). *)
