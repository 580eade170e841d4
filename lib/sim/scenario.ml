module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Route_table = Rtr_routing.Route_table

type kind = Recoverable | Irrecoverable

type case = {
  initiator : Graph.node;
  trigger : Graph.node;
  dst : Graph.node;
  kind : kind;
  shortest_after : int option;
}

type t = {
  topo : Rtr_topo.Topology.t;
  table : Rtr_routing.Route_table.t;
  area : Rtr_failure.Area.t;
  damage : Rtr_failure.Damage.t;
  cases : case list;
}

(* Episodes are kept integer-only — centisecond offsets and element id
   lists — so the stream codec serialises them exactly, like every
   other scenario field. *)
type episode = {
  at_cs : int;
  fail_nodes : int list;
  fail_links : int list;
  restore_nodes : int list;
  restore_links : int list;
}

let apply_episode g damage e =
  let restored =
    if e.restore_nodes = [] && e.restore_links = [] then damage
    else
      Damage.restore damage ~nodes:e.restore_nodes ~links:e.restore_links ()
  in
  if e.fail_nodes = [] && e.fail_links = [] then restored
  else
    Damage.merge restored
      (Damage.of_failed g ~nodes:e.fail_nodes ~links:e.fail_links)

let timeline g base episodes =
  let episodes =
    List.stable_sort (fun a b -> compare a.at_cs b.at_cs) episodes
  in
  List.fold_left
    (fun acc e ->
      let current = snd (List.hd acc) in
      let next = apply_episode g current e in
      if Damage.equal next current then acc
      else (float_of_int e.at_cs /. 100., next) :: acc)
    [ (0., base) ]
    episodes
  |> List.rev

let c_classify_visits = Rtr_obs.Metrics.counter "scenario.classify_visits"

(* The index entries of every dead link — failed, or with a failed
   endpoint — packed [dst * n + src] and bucketed by ascending dst.
   Each entry roots a subtree of the routing tree towards [dst] whose
   default paths all cross the dead link at [src]; together they are
   exactly the failed default paths, since a path through a failed
   router also crosses a link with a failed endpoint. *)
let dead_link_entries g damage (idx : Route_table.Link_index.t) =
  let n = idx.n in
  let dead = ref [] in
  Graph.iter_links g (fun l a b ->
      if
        Damage.link_failed damage l
        || Damage.node_failed damage a
        || Damage.node_failed damage b
      then dead := l :: !dead);
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun l ->
      for k = idx.link_off.(l) to idx.link_off.(l + 1) - 1 do
        let d = idx.pair_dst.(k) + 1 in
        off.(d) <- off.(d) + 1
      done)
    !dead;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  let entries = Array.make off.(n) 0 in
  List.iter
    (fun l ->
      for k = idx.link_off.(l) to idx.link_off.(l + 1) - 1 do
        let d = idx.pair_dst.(k) in
        entries.(off.(d)) <- (d * n) + idx.pair_src.(k);
        off.(d) <- off.(d) + 1
      done)
    !dead;
  entries

(* Stable counting sort of [keys] by [digit key], a value in [0, n). *)
let counting_sort n digit keys =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun k -> off.(digit k + 1) <- off.(digit k + 1) + 1) keys;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  let sorted = Array.make (Array.length keys) 0 in
  Array.iter
    (fun k ->
      let d = digit k in
      sorted.(off.(d)) <- k;
      off.(d) <- off.(d) + 1)
    keys;
  sorted

let cases_of_damage topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let view = Damage.view damage in
  let node_ok = Damage.node_ok damage in
  let n = Graph.n_nodes g in
  (* A live router [src] with a dead next link towards [dst] is the
     initiator of case (src, dst): the dead-link entries with a live
     source.  They come bucketed by dst, so a stable sort by src puts
     them in ascending (initiator, dst) order. *)
  let keys =
    dead_link_entries g damage (Route_table.link_index table)
    |> counting_sort n (fun k -> k mod n)
  in
  (* One damaged-graph SPT per initiator gives every case's optimality
     yardstick; computed lazily since most nodes initiate nothing.  The
     tree lives in the domain workspace: each initiator's cases only
     read route-table rows and damage bitsets between queries, so the
     borrowed arrays stay valid until the next initiator replaces
     them. *)
  let cached_root = ref (-1) in
  let cached_spt = ref None in
  let shortest_from u =
    match !cached_spt with
    | Some spt when !cached_root = u -> spt
    | _ ->
        let spt =
          Rtr_graph.Dijkstra.spt
            ~workspace:(Rtr_graph.Dijkstra.Workspace.get ())
            view ~root:u ()
        in
        cached_root := u;
        cached_spt := Some spt;
        spt
  in
  let cases = ref [] in
  for k = Array.length keys - 1 downto 0 do
    let initiator = keys.(k) mod n and dst = keys.(k) / n in
    if node_ok initiator then begin
      let link = Route_table.next_link_int table ~src:initiator ~dst in
      let trigger = Graph.other_end g link initiator in
      let spt = shortest_from initiator in
      let case =
        if node_ok dst && Rtr_graph.Spt.reached spt dst then
          {
            initiator;
            trigger;
            dst;
            kind = Recoverable;
            shortest_after = Some (Rtr_graph.Spt.dist spt dst);
          }
        else
          {
            initiator;
            trigger;
            dst;
            kind = Irrecoverable;
            shortest_after = None;
          }
      in
      cases := case :: !cases
    end
  done;
  !cases

let of_area topo table area =
  let damage = Damage.apply topo area in
  { topo; table; area; damage; cases = cases_of_damage topo table damage }

let generate topo table rng ?(r_min = 100.0) ?(r_max = 300.0) () =
  let area = Rtr_failure.Area.random_disc rng ~r_min ~r_max () in
  of_area topo table area

let count_failed_paths topo table damage =
  let g = Rtr_topo.Topology.graph topo in
  let n = Graph.n_nodes g in
  let idx = Route_table.link_index table in
  let comps = lazy (Rtr_graph.Components.compute (Damage.view damage)) in
  let failed = Array.of_list (Damage.failed_nodes damage) in
  let visits = ref 0 in
  let recoverable = ref 0 and irrecoverable = ref 0 in
  (* Every routed live source towards a failed dst is irrecoverable:
     the dst's whole tree less the failed sources in it, so a failed
     dst costs one table probe per failed router, not a tree walk. *)
  Array.iter
    (fun dst ->
      let routed = idx.child_off.((dst + 1) * n) - idx.child_off.(dst * n) in
      let dead_routed = ref 0 in
      Array.iter
        (fun src ->
          if src <> dst && Route_table.next_link_int table ~src ~dst >= 0 then
            incr dead_routed)
        failed;
      visits := !visits + Array.length failed;
      irrecoverable := !irrecoverable + routed - !dead_routed)
    failed;
  (* Towards a live dst, the failed paths are the live sources below a
     dead link.  Bucketed by dst, so one dst's roots are handled
     together and a stamp of [dst] marks a node visited in that dst's
     tree. *)
  let roots = dead_link_entries g damage idx in
  visits := !visits + Array.length roots;
  let stamp = Array.make n (-1) and stack = Array.make n 0 in
  (* Classifies every live source in [root]'s subtree that no earlier
     root of [dst] covered: a stamped node's whole subtree is stamped
     already, so the DFS stops there. *)
  let classify_below ~dst root =
    if stamp.(root) <> dst then begin
      let comps = Lazy.force comps in
      stamp.(root) <- dst;
      stack.(0) <- root;
      let sp = ref 1 in
      while !sp > 0 do
        decr sp;
        let u = stack.(!sp) in
        incr visits;
        if not (Damage.node_failed damage u) then
          if Rtr_graph.Components.same comps u dst then incr recoverable
          else incr irrecoverable;
        let key = (dst * n) + u in
        for c = idx.child_off.(key) to idx.child_off.(key + 1) - 1 do
          let v = idx.children.(c) in
          if stamp.(v) <> dst then begin
            stamp.(v) <- dst;
            stack.(!sp) <- v;
            incr sp
          end
        done
      done
    end
  in
  Array.iter
    (fun key ->
      let dst = key / n in
      if not (Damage.node_failed damage dst) then
        classify_below ~dst (key mod n))
    roots;
  Rtr_obs.Metrics.Counter.add c_classify_visits !visits;
  (!recoverable, !irrecoverable)
