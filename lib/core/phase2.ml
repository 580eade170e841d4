module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Damage = Rtr_failure.Damage
module Dijkstra = Rtr_graph.Dijkstra
module Spt = Rtr_graph.Spt

module Metrics = Rtr_obs.Metrics

let c_creates = Metrics.counter "phase2.creates"
let c_sp_calcs = Metrics.counter "phase2.sp_calcs"
let c_cache_hits = Metrics.counter "phase2.cache_hits"

type t = {
  initiator : Graph.node;
  view : View.t;
  removed_list : Graph.link_id list;
  (* Owned snapshot of the damaged-view SPT: distance labels and tree
     predecessors, copied out of the domain workspace at creation. *)
  dist : int array;
  parent : int array;
  cache : (Graph.node, Rtr_graph.Path.t option) Hashtbl.t;
  mutable sp_calcs : int;
}

(* The initiator's post-phase-1 topology view: full graph minus the
   phase-1 collection, the packet-carried extras and its own dead
   links. *)
let initiator_view topo damage ~extra_removed ~phase1 =
  let g = Rtr_topo.Topology.graph topo in
  let initiator = phase1.Phase1.initiator in
  let removed = Array.make (Graph.n_links g) false in
  List.iter (fun id -> removed.(id) <- true) phase1.Phase1.failed_links;
  List.iter (fun id -> removed.(id) <- true) extra_removed;
  List.iter
    (fun (_, id) -> removed.(id) <- true)
    (Damage.unreachable_neighbors damage g initiator);
  let removed_list = ref [] in
  for id = Graph.n_links g - 1 downto 0 do
    if removed.(id) then removed_list := id :: !removed_list
  done;
  (initiator, !removed_list, View.remove_links (View.full g) !removed_list)

let create topo damage ?(extra_removed = []) ~phase1 () =
  let initiator, removed_list, view =
    initiator_view topo damage ~extra_removed ~phase1
  in
  (* One Dijkstra over the damaged view in the domain workspace, then
     an O(n) copy of the two arrays the queries read: the session owns
     its tree and stays valid whatever runs on this domain next. *)
  let spt =
    Dijkstra.spt ~workspace:(Dijkstra.Workspace.get ()) view ~root:initiator ()
  in
  Metrics.Counter.incr c_creates;
  {
    initiator;
    view;
    removed_list;
    dist = Array.copy spt.Spt.dist;
    parent = Array.copy spt.Spt.parent_node;
    cache = Hashtbl.create 16;
    sp_calcs = 0;
  }

let initiator t = t.initiator
let removed_links t = t.removed_list
let view t = t.view

let recovery_path t ~dst =
  match Hashtbl.find_opt t.cache dst with
  | Some cached ->
      Metrics.Counter.incr c_cache_hits;
      cached
  | None ->
      t.sp_calcs <- t.sp_calcs + 1;
      Metrics.Counter.incr c_sp_calcs;
      let path =
        if t.dist.(dst) = max_int then None
        else
          let rec walk acc u =
            if u = -1 then acc else walk (u :: acc) t.parent.(u)
          in
          Some (Rtr_graph.Path.of_nodes (walk [] dst))
      in
      Hashtbl.replace t.cache dst path;
      path

let recovery_distance t ~dst =
  match recovery_path t ~dst with None -> None | Some _ -> Some t.dist.(dst)

let sp_calculations t = t.sp_calcs
