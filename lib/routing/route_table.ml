module Graph = Rtr_graph.Graph
module Dijkstra = Rtr_graph.Dijkstra
module View = Rtr_graph.View
module Spt = Rtr_graph.Spt

type t = {
  graph : Graph.t;
  (* [next.(dst).(src)] and [dist_to.(dst).(src)] *)
  next : int array array;
  next_lnk : int array array;
  dist_to : int array array;
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
  { graph; next; next_lnk; dist_to }

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
  { graph; next; next_lnk; dist_to }

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

(* [default_path] + [Path.is_valid] fused, without materialising the
   path: walk the precomputed next/link rows and probe the view's
   bitsets directly.  This is the fig-11 classification kernel, run
   n^2 times per sampled failure area, so the list building and the
   per-hop [Graph.find_link] scans of the naive pair are worth fusing
   away.  [None] when the table has no pre-failure path; otherwise
   [Some valid] with exactly [Path.is_valid view (default_path ...)]'s
   verdict. *)
let default_path_valid t view ~src ~dst =
  if src = dst then Some (View.node_ok view src)
  else begin
    let next_row = t.next.(dst) and link_row = t.next_lnk.(dst) in
    if next_row.(src) = -1 then None
    else begin
      let u = ref src and verdict = ref true and walking = ref true in
      while !walking do
        if not (View.node_ok view !u) then begin
          verdict := false;
          walking := false
        end
        else if !u = dst then walking := false
        else if not (View.link_ok view link_row.(!u)) then begin
          verdict := false;
          walking := false
        end
        else u := next_row.(!u)
      done;
      Some !verdict
    end
  end

let equal a b =
  a.graph == b.graph && a.next = b.next && a.next_lnk = b.next_lnk
  && a.dist_to = b.dist_to
