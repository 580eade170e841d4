(** Incremental shortest-path-tree recomputation (Narvaez et al. style).

    RTR's phase 2 "adopts incremental recomputation to calculate the
    shortest path from the recovery initiator to the destination"
    (Sec. III-D): after phase 1 the initiator removes the collected
    failed links from its view and repairs its existing SPT instead of
    rerunning Dijkstra from scratch.  Only the subtrees hanging below a
    removed element are re-relaxed; the rest of the tree is untouched.

    Both entry points mutate the tree in place.  Distances after a
    repair are guaranteed equal to a from-scratch Dijkstra over the same
    view (property-tested).  [remove] also applies Dijkstra's tie-break,
    so its parent pointers match too (the [incr_spt_vs_dijkstra] fuzz
    oracle checks both); after [restore] only distances are checked. *)

val remove :
  Spt.t ->
  ?dead_nodes:Graph.node list ->
  ?dead_links:Graph.link_id list ->
  view:View.t ->
  unit ->
  int
(** Repairs the tree after the given nodes/links stop being usable.
    [view] must describe liveness {e after} the removal (i.e. it
    excludes the dead elements).  Raises [Invalid_argument] if the view
    is over a different graph than the tree.  Returns the number of
    nodes whose distance had to be recomputed — the measure of how
    "local" the failure was. *)

val restore :
  Spt.t ->
  ?new_nodes:Graph.node list ->
  ?new_links:Graph.link_id list ->
  view:View.t ->
  unit ->
  int
(** Dual operation: elements coming back up (e.g. after repair /
    convergence).  The view describes liveness after the restoration.
    Returns the number of improved nodes. *)
