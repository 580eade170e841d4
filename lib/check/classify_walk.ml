module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table
module Scenario = Rtr_sim.Scenario

let default_path_valid table view ~src ~dst =
  if src = dst then Some (View.node_ok view src)
  else if Route_table.next_hop_int table ~src ~dst = -1 then None
  else begin
    let u = ref src and verdict = ref true and walking = ref true in
    while !walking do
      if not (View.node_ok view !u) then begin
        verdict := false;
        walking := false
      end
      else if !u = dst then walking := false
      else if
        not (View.link_ok view (Route_table.next_link_int table ~src:!u ~dst))
      then begin
        verdict := false;
        walking := false
      end
      else u := Route_table.next_hop_int table ~src:!u ~dst
    done;
    Some !verdict
  end

let count_failed_paths topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let view = Damage.view damage in
  let node_ok = Damage.node_ok damage in
  let comps = Rtr_graph.Components.compute view in
  let n = Graph.n_nodes g in
  let recoverable = ref 0 and irrecoverable = ref 0 in
  for s = 0 to n - 1 do
    if node_ok s then
      for t = 0 to n - 1 do
        if t <> s then
          match default_path_valid table view ~src:s ~dst:t with
          | None | Some true -> ()
          | Some false ->
              if node_ok t && Rtr_graph.Components.same comps s t then
                incr recoverable
              else incr irrecoverable
      done
  done;
  (!recoverable, !irrecoverable)

let cases_of_damage topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let view = Damage.view damage in
  let node_ok = Damage.node_ok damage in
  let n = Graph.n_nodes g in
  let cases = ref [] in
  for initiator = n - 1 downto 0 do
    if node_ok initiator then begin
      (* A fresh tree per initiator, built only if it initiates. *)
      let spt = lazy (Rtr_graph.Dijkstra.spt view ~root:initiator ()) in
      for dst = n - 1 downto 0 do
        if dst <> initiator then
          match Route_table.next_link table ~src:initiator ~dst with
          | None -> ()
          | Some link ->
              let trigger = Graph.other_end g link initiator in
              if Damage.neighbor_unreachable damage trigger link then begin
                let spt = Lazy.force spt in
                let case =
                  if node_ok dst && Rtr_graph.Spt.reached spt dst then
                    {
                      Scenario.initiator;
                      trigger;
                      dst;
                      kind = Scenario.Recoverable;
                      shortest_after = Some (Rtr_graph.Spt.dist spt dst);
                    }
                  else
                    {
                      Scenario.initiator;
                      trigger;
                      dst;
                      kind = Scenario.Irrecoverable;
                      shortest_after = None;
                    }
                in
                cases := case :: !cases
              end
      done
    end
  done;
  !cases
