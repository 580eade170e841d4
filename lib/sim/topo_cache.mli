(** Per-topology compute cache for the experiment harness.

    Experiments evaluate hundreds of failure scenarios against the same
    topology; everything that depends only on the {e pre-failure}
    topology is computed once here and shared: the undamaged view and
    the pre-failure routing table ([table]), reused e.g. by the scenario
    rejection-sampling loop instead of one [Route_table.compute] per
    candidate.

    Hit/miss counts are exported as [topo_cache.*] metrics. *)

type t

val create : Rtr_topo.Topology.t -> t
(** Empty cache; nothing is computed until first demanded.  Prefer
    {!shared} — a private cache forgets everything other stages already
    computed for the topology. *)

val shared : Rtr_topo.Topology.t -> t
(** The process-wide cache for this topology, created on first call
    (keyed by name, guarded by physical equality of the topology — a
    distinct same-named topology gets a fresh cache).  Every experiment
    stage asking for the same loaded topology gets the same cache, so
    e.g. the fig. 11 sweep reuses the routing table the main collection
    already computed. *)

val topology : t -> Rtr_topo.Topology.t

val full_view : t -> Rtr_graph.View.t
(** The undamaged view of the topology's graph, allocated once. *)

val table : t -> Rtr_routing.Route_table.t
(** The pre-failure routing table, computed on first call. *)
