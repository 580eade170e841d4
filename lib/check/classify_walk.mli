(** Reference failed-path classification: the O(n^2 * L) walk.

    Every (src, dst) default path is followed hop by hop against the
    damage — the direct reading of Sec. IV's definitions, which
    [Rtr_sim.Scenario] replaced with failure-driven kernels over each
    route table's link index.  Kept as the independent side of the
    [classify_vs_walk] oracle and as the bench's ablation baseline. *)

module Graph = Rtr_graph.Graph

val default_path_valid :
  Rtr_routing.Route_table.t ->
  Rtr_graph.View.t ->
  src:Graph.node ->
  dst:Graph.node ->
  bool option
(** [Option.map (Path.is_valid view) (Route_table.default_path t ~src ~dst)],
    computed by walking the table rows against the view's bitsets:
    [None] when the table has no pre-failure path. *)

val count_failed_paths :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_failure.Damage.t ->
  int * int
(** What [Scenario.count_failed_paths] must return. *)

val cases_of_damage :
  Rtr_topo.Topology.t ->
  Rtr_routing.Route_table.t ->
  Rtr_failure.Damage.t ->
  Rtr_sim.Scenario.case list
(** What [Scenario.cases_of_damage] must return, order included: an
    n^2 scan of every live initiator's next links. *)
