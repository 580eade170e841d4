module Graph = Rtr_graph.Graph
module Dijkstra = Rtr_graph.Dijkstra
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt

module Link_index = struct
  type t = {
    n : int;
    link_off : int array;
    pair_dst : int array;
    pair_src : int array;
    child_off : int array;
    children : int array;
  }
end

type t = {
  graph : Graph.t;
  (* [next.(dst).(src)] and [dist_to.(dst).(src)] *)
  next : int array array;
  next_lnk : int array array;
  dist_to : int array array;
  index : Link_index.t option Atomic.t;
}

let compute view =
  let graph = View.graph view in
  let n = Graph.n_nodes graph in
  let next = Array.make n [||]
  and next_lnk = Array.make n [||]
  and dist_to = Array.make n [||] in
  (* One SPT per destination, each discarded after its row is copied
     out: the canonical borrowed-workspace consumer (n runs, zero
     array allocation after the first). *)
  let workspace = Dijkstra.Workspace.get () in
  for dst = 0 to n - 1 do
    let spt = Dijkstra.spt ~workspace view ~root:dst ~direction:Spt.To_root () in
    let dist_row = Array.init n (fun src -> Spt.dist spt src) in
    let next_row = Array.make n (-1) and link_row = Array.make n (-1) in
    for src = 0 to n - 1 do
      if src <> dst && dist_row.(src) < max_int then begin
        (* Deterministic choice independent of Dijkstra's internal tie
           handling: smallest neighbour on some shortest path. *)
        View.iter_neighbors view src (fun v id ->
            if
              next_row.(src) = -1
              && dist_row.(v) < max_int
              && Graph.cost graph id ~src + dist_row.(v) = dist_row.(src)
            then begin
              next_row.(src) <- v;
              link_row.(src) <- id
            end)
      end
    done;
    next.(dst) <- next_row;
    next_lnk.(dst) <- link_row;
    dist_to.(dst) <- dist_row
  done;
  { graph; next; next_lnk; dist_to; index = Atomic.make None }

(* Closure-pair reference implementation: the equivalence oracle. *)
let compute_filtered ?(node_ok = fun _ -> true) ?(link_ok = fun _ -> true)
    graph =
  let n = Graph.n_nodes graph in
  let next = Array.make n [||]
  and next_lnk = Array.make n [||]
  and dist_to = Array.make n [||] in
  for dst = 0 to n - 1 do
    let spt =
      Dijkstra.spt_filtered graph ~root:dst ~direction:Spt.To_root ~node_ok
        ~link_ok ()
    in
    let dist_row = Array.init n (fun src -> Spt.dist spt src) in
    let next_row = Array.make n (-1) and link_row = Array.make n (-1) in
    for src = 0 to n - 1 do
      if src <> dst && dist_row.(src) < max_int then begin
        Graph.iter_neighbors graph src (fun v id ->
            if
              next_row.(src) = -1
              && link_ok id && node_ok v
              && dist_row.(v) < max_int
              && Graph.cost graph id ~src + dist_row.(v) = dist_row.(src)
            then begin
              next_row.(src) <- v;
              link_row.(src) <- id
            end)
      end
    done;
    next.(dst) <- next_row;
    next_lnk.(dst) <- link_row;
    dist_to.(dst) <- dist_row
  done;
  { graph; next; next_lnk; dist_to; index = Atomic.make None }

let graph t = t.graph

let next_hop_int t ~src ~dst = t.next.(dst).(src)
let next_link_int t ~src ~dst = t.next_lnk.(dst).(src)

let next_hop t ~src ~dst =
  let v = t.next.(dst).(src) in
  if v = -1 then None else Some v

let next_link t ~src ~dst =
  let l = t.next_lnk.(dst).(src) in
  if l = -1 then None else Some l

let dist t ~src ~dst = t.dist_to.(dst).(src)

let default_path t ~src ~dst =
  if src = dst then Some (Rtr_graph.Path.of_nodes [ src ])
  else if t.next.(dst).(src) = -1 then None
  else begin
    let rec walk acc u =
      if u = dst then List.rev (u :: acc)
      else walk (u :: acc) t.next.(dst).(u)
    in
    Some (Rtr_graph.Path.of_nodes (walk [] src))
  end

(* Both CSR tables in O(n^2): a counting pass sizes every bucket, a
   prefix sum turns the counts into offsets, and a fill pass in
   ascending (dst, src) order leaves each bucket sorted. *)
let build_index t =
  let n = Graph.n_nodes t.graph and m = Graph.n_links t.graph in
  let link_off = Array.make (m + 1) 0
  and child_off = Array.make ((n * n) + 1) 0 in
  for dst = 0 to n - 1 do
    let next_row = t.next.(dst) and link_row = t.next_lnk.(dst) in
    for src = 0 to n - 1 do
      let l = link_row.(src) in
      if l >= 0 then begin
        link_off.(l + 1) <- link_off.(l + 1) + 1;
        let key = (dst * n) + next_row.(src) + 1 in
        child_off.(key) <- child_off.(key) + 1
      end
    done
  done;
  for l = 1 to m do
    link_off.(l) <- link_off.(l) + link_off.(l - 1)
  done;
  for k = 1 to n * n do
    child_off.(k) <- child_off.(k) + child_off.(k - 1)
  done;
  let routed = link_off.(m) in
  let pair_dst = Array.make routed 0 and pair_src = Array.make routed 0 in
  let children = Array.make routed 0 in
  let link_fill = Array.sub link_off 0 m
  and child_fill = Array.sub child_off 0 (n * n) in
  for dst = 0 to n - 1 do
    let next_row = t.next.(dst) and link_row = t.next_lnk.(dst) in
    for src = 0 to n - 1 do
      let l = link_row.(src) in
      if l >= 0 then begin
        pair_dst.(link_fill.(l)) <- dst;
        pair_src.(link_fill.(l)) <- src;
        link_fill.(l) <- link_fill.(l) + 1;
        let key = (dst * n) + next_row.(src) in
        children.(child_fill.(key)) <- src;
        child_fill.(key) <- child_fill.(key) + 1
      end
    done
  done;
  { Link_index.n; link_off; pair_dst; pair_src; child_off; children }

(* A once-cell: racing domains may each build the index, the first CAS
   publishes its copy, and every caller returns the published one. *)
let link_index t =
  match Atomic.get t.index with
  | Some idx -> idx
  | None ->
      let idx = build_index t in
      if Atomic.compare_and_set t.index None (Some idx) then idx
      else Option.get (Atomic.get t.index)

let equal a b =
  a.graph == b.graph && a.next = b.next && a.next_lnk = b.next_lnk
  && a.dist_to = b.dist_to
