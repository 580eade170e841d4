(** Bidirectional phase 1 — an extension beyond the paper.

    The paper sends one packet clockwise around the failure area; the
    initiator is blind until it returns.  This extension launches two
    packets, one per rotation direction ([Sweep.Right] and
    [Sweep.Left]), and merges the two collections.

    Measured verdict (`rtr_sim bidir`): because both directions trace
    essentially the same perimeter, the first-return delay gain is
    small; the value is the {e merged view} — the two walks make
    different cross-link exclusions and so collect different misses,
    which raises the recovery rate a couple of points on
    crossing-heavy topologies at the cost of doubling phase-1
    transmission. *)

module Graph = Rtr_graph.Graph

type result = {
  right : Phase1.result;
  left : Phase1.result;
  first_return_hops : int;
      (** hops until the earlier walk closes: the delay before the
          initiator can start rerouting *)
  both_return_hops : int;
      (** hops until the later walk closes: when the merged view is
          complete *)
  merged_failed_links : Graph.link_id list;
      (** union of both collections, right-walk order first *)
}

val run :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  initiator:Graph.node ->
  trigger:Graph.node ->
  unit ->
  result

val phase2_of_merged :
  Rtr_topo.Topology.t ->
  Rtr_failure.Damage.t ->
  result ->
  Phase2.t
(** Phase 2 over the merged collection (the "after both return"
    view). *)
