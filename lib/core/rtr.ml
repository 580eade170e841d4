module Graph = Rtr_graph.Graph
module Source_route = Rtr_routing.Source_route

type outcome =
  | Recovered of Rtr_graph.Path.t
  | Unreachable_in_view
  | False_path of {
      path : Rtr_graph.Path.t;
      dropped_at : Graph.node;
      hops_done : int;
    }

type t = {
  topo : Rtr_topo.Topology.t;
  damage : Rtr_failure.Damage.t;
  phase1 : Phase1.result;
  phase2 : Phase2.t;
}

(* [batched] is accepted and ignored: every session is a snapshot. *)
let start topo damage ?batched:_ ~initiator ~trigger () =
  let phase1 = Phase1.run topo damage ~initiator ~trigger () in
  { topo; damage; phase1; phase2 = Phase2.create topo damage ~phase1 () }

let phase1 t = t.phase1
let phase2 t = t.phase2

(* An episode changed the ground truth mid-convergence: rebuild phase 2
   from the SAME phase-1 collection (now stale — re-walking is a new
   recovery, not a resumption) against the new damage.  Local knowledge
   refreshes for free: [Phase2] re-reads the initiator's unreachable
   neighbours from the damage it is given. *)
let resume t damage =
  { t with damage; phase2 = Phase2.create t.topo damage ~phase1:t.phase1 () }

let recover t ~dst =
  match Phase2.recovery_path t.phase2 ~dst with
  | None -> Unreachable_in_view
  | Some path -> (
      match
        Source_route.follow (Rtr_topo.Topology.graph t.topo) t.damage path
      with
      | Source_route.Delivered -> Recovered path
      | Source_route.Dropped { at; hops_done } ->
          False_path { path; dropped_at = at; hops_done })

let recovery_distance t ~dst = Phase2.recovery_distance t.phase2 ~dst
let sp_calculations t = Phase2.sp_calculations t.phase2
