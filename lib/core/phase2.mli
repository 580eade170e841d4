(** Phase 2: recomputation and rerouting (Sec. III-D).

    The recovery initiator removes from its topology view the links
    collected in phase 1 plus its own links to unreachable neighbours,
    computes one shortest-path tree over that damaged view, and
    source-routes packets along the tree's paths.  The tree is
    bit-identical — distances and predecessors — to the paper's
    incremental repair of the pre-failure tree
    ([Rtr_graph.Incremental_spt]), as the [incr_spt_vs_dijkstra] oracle
    checks.  Paths are cached: one shortest-path calculation per
    affected destination, which is the paper's computational-overhead
    accounting for RTR. *)

module Graph = Rtr_graph.Graph

type t
(** An immutable snapshot of the damaged-view tree plus the
    per-destination path cache.  Valid forever: the session owns its
    labels, so any other shortest-path work on the same domain leaves
    it untouched. *)

val create :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  ?extra_removed:Graph.link_id list ->
  phase1:Phase1.result ->
  unit ->
  t
(** Builds the initiator's view and its shortest-path tree.  [Damage]
    is consulted only for the initiator's {e local} knowledge (its own
    unreachable neighbours) — phase 2 never peeks at the global failure
    state.  [extra_removed] carries failure information already in the
    packet header, used by the multiple-failure-area extension
    (Sec. III-E).  Observable as [phase2.creates]. *)

val initiator : t -> Graph.node

val view : t -> Rtr_graph.View.t
(** The initiator's post-phase-1 failure view: the full graph minus
    [removed_links]. *)

val removed_links : t -> Graph.link_id list
(** The links absent from the view: phase-1 collection plus
    initiator-incident failures, deduplicated, ascending. *)

val recovery_path : t -> dst:Graph.node -> Rtr_graph.Path.t option
(** The shortest path from the initiator to [dst] in the view; [None]
    means the destination looks unreachable and packets for it are
    discarded immediately.  Cached per destination: the first query
    counts as [phase2.sp_calcs], repeats as [phase2.cache_hits]. *)

val recovery_distance : t -> dst:Graph.node -> int option
(** The tree's distance label for [dst] ([None] when unreachable in the
    view), answered through {!recovery_path}'s cache. *)

val sp_calculations : t -> int
(** Number of distinct destinations for which a shortest path has been
    calculated so far — the paper counts exactly 1 per test case. *)
