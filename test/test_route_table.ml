module Graph = Rtr_graph.Graph
module View = Rtr_graph.View
module Route_table = Rtr_routing.Route_table
module Path = Rtr_graph.Path

let ring n =
  Graph.build ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let test_next_hop_basics () =
  let g = ring 6 in
  let t = Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "clockwise" (Some 1)
    (Route_table.next_hop t ~src:0 ~dst:2);
  Alcotest.(check (option int)) "counterclockwise" (Some 5)
    (Route_table.next_hop t ~src:0 ~dst:4);
  Alcotest.(check (option int)) "self" None (Route_table.next_hop t ~src:3 ~dst:3)

let test_deterministic_tie_break () =
  (* 0->3 via 1 or 2, both 2 hops: the smaller next hop wins. *)
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t = Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "smallest id" (Some 1)
    (Route_table.next_hop t ~src:0 ~dst:3)

let test_default_path_consistent () =
  let g = ring 8 in
  let t = Route_table.compute (View.full g) in
  let p = Option.get (Route_table.default_path t ~src:0 ~dst:3) in
  Alcotest.(check (list int)) "hop-by-hop path" [ 0; 1; 2; 3 ] (Path.nodes p);
  Alcotest.(check int) "dist matches" 3 (Route_table.dist t ~src:0 ~dst:3)

let test_asymmetric_costs () =
  (* 0->2: direct link costs 10 one way, 1 the other. *)
  let g =
    Graph.build_weighted ~n:3
      ~edges:[ (0, 1, 1, 1); (1, 2, 1, 1); (0, 2, 10, 1) ]
  in
  let t = Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "expensive direction detours" (Some 1)
    (Route_table.next_hop t ~src:0 ~dst:2);
  Alcotest.(check (option int)) "cheap direction direct" (Some 0)
    (Route_table.next_hop t ~src:2 ~dst:0);
  Alcotest.(check int) "forward dist" 2 (Route_table.dist t ~src:0 ~dst:2);
  Alcotest.(check int) "reverse dist" 1 (Route_table.dist t ~src:2 ~dst:0)

let test_disconnected () =
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let t = Route_table.compute (View.full g) in
  Alcotest.(check (option int)) "no hop" None (Route_table.next_hop t ~src:0 ~dst:3);
  Alcotest.(check bool) "dist inf" true (Route_table.dist t ~src:0 ~dst:3 = max_int);
  Alcotest.(check (option (list int)))
    "no path" None
    (Option.map Path.nodes (Route_table.default_path t ~src:0 ~dst:3))

let paths_are_shortest =
  QCheck.Test.make ~name:"default paths are shortest paths" ~count:30
    QCheck.(pair (int_range 3 25) (int_range 0 40))
    (fun (n, extra) ->
      let g = Rtr_check.Gen.random_connected_graph ~seed:(n + (extra * 53)) ~n ~extra in
      let t = Route_table.compute (View.full g) in
      let ok = ref true in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then begin
            match Route_table.default_path t ~src:s ~dst:d with
            | None -> ok := false
            | Some p ->
                let best =
                  Option.get (Rtr_graph.Dijkstra.distance (View.full g) ~src:s ~dst:d)
                in
                if Path.cost g p <> best then ok := false
          end
        done
      done;
      !ok)

let next_link_matches_next_hop =
  QCheck.Test.make ~name:"next_link goes to next_hop" ~count:30
    QCheck.(int_range 3 20)
    (fun n ->
      let g = Rtr_check.Gen.random_connected_graph ~seed:(n * 3) ~n ~extra:n in
      let t = Route_table.compute (View.full g) in
      let ok = ref true in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          match (Route_table.next_hop t ~src:s ~dst:d,
                 Route_table.next_link t ~src:s ~dst:d) with
          | Some v, Some id -> if Graph.other_end g id s <> v then ok := false
          | None, None -> ()
          | _ -> ok := false
        done
      done;
      !ok)

(* The int accessors are the option accessors with -1 for [None], on
   every (src, dst) of a Table-II AS — before the failure and after it,
   where the damaged table has unreachable pairs and dead routers. *)
let test_int_accessors_agree () =
  let topo = Rtr_topo.Isp.load_by_name "AS209" in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Rtr_failure.Damage.of_failed g ~nodes:[ 0; 7; 19 ] ~links:[ 3; 40; 77 ]
  in
  let as_int = function None -> -1 | Some v -> v in
  List.iter
    (fun (label, view) ->
      let t = Route_table.compute view in
      let nones = ref 0 in
      for src = 0 to Graph.n_nodes g - 1 do
        for dst = 0 to Graph.n_nodes g - 1 do
          let hop = Route_table.next_hop t ~src ~dst in
          if hop = None then incr nones;
          Alcotest.(check int) (label ^ " next hop") (as_int hop)
            (Route_table.next_hop_int t ~src ~dst);
          Alcotest.(check int) (label ^ " next link")
            (as_int (Route_table.next_link t ~src ~dst))
            (Route_table.next_link_int t ~src ~dst)
        done
      done;
      (* the diagonal at least; the damaged table cuts far more *)
      Alcotest.(check bool) (label ^ " has no-route pairs") true
        (!nones >= Graph.n_nodes g))
    [ ("full", View.full g); ("damaged", Rtr_failure.Damage.view damage) ]

(* The link index is the table inverted: each routed (dst, src) pair
   listed once, under its next link, and each src listed once as a
   child of its next hop in dst's tree.  It is built once per table. *)
let index_inverts_table =
  QCheck.Test.make ~name:"link index inverts the table" ~count:30
    QCheck.(pair (int_range 2 20) (int_range 0 30))
    (fun (n, extra) ->
      let g =
        Rtr_check.Gen.random_weighted_graph ~seed:(n + (extra * 31)) ~n ~extra
          ~max_cost:4
      in
      let t = Route_table.compute (View.full g) in
      let idx = Route_table.link_index t in
      let ok = ref (idx == Route_table.link_index t && idx.n = n) in
      let seen = Array.make (n * n) 0 in
      for l = 0 to Graph.n_links g - 1 do
        for k = idx.link_off.(l) to idx.link_off.(l + 1) - 1 do
          let dst = idx.pair_dst.(k) and src = idx.pair_src.(k) in
          seen.((dst * n) + src) <- seen.((dst * n) + src) + 1;
          if Route_table.next_link_int t ~src ~dst <> l then ok := false
        done
      done;
      for dst = 0 to n - 1 do
        for u = 0 to n - 1 do
          let key = (dst * n) + u in
          let expect =
            List.filter
              (fun src -> Route_table.next_hop_int t ~src ~dst = u)
              (List.init n Fun.id)
          in
          let kids =
            List.init
              (idx.child_off.(key + 1) - idx.child_off.(key))
              (fun c -> idx.children.(idx.child_off.(key) + c))
          in
          if kids <> expect then ok := false;
          let routed = Route_table.next_link_int t ~src:u ~dst >= 0 in
          if seen.(key) <> if routed then 1 else 0 then ok := false
        done
      done;
      !ok)

(* The reference walk behind the classification oracle is
   [default_path] checked hop by hop. *)
let walk_matches_path_validity =
  QCheck.Test.make ~name:"reference walk equals path validity" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let topo = Rtr_check.Gen.random_topology ~seed ~n:14 in
      let g = Rtr_topo.Topology.graph topo in
      let view =
        Rtr_failure.Damage.view (Rtr_check.Gen.random_damage ~seed topo)
      in
      let t = Route_table.compute (View.full g) in
      let ok = ref true in
      for src = 0 to 13 do
        for dst = 0 to 13 do
          if
            Rtr_check.Classify_walk.default_path_valid t view ~src ~dst
            <> Option.map (Path.is_valid view)
                 (Route_table.default_path t ~src ~dst)
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "int accessors agree" `Quick test_int_accessors_agree;
    Alcotest.test_case "next hop basics" `Quick test_next_hop_basics;
    Alcotest.test_case "deterministic tie break" `Quick test_deterministic_tie_break;
    Alcotest.test_case "default path consistent" `Quick test_default_path_consistent;
    Alcotest.test_case "asymmetric costs" `Quick test_asymmetric_costs;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    QCheck_alcotest.to_alcotest paths_are_shortest;
    QCheck_alcotest.to_alcotest next_link_matches_next_hop;
    QCheck_alcotest.to_alcotest index_inverts_table;
    QCheck_alcotest.to_alcotest walk_matches_path_validity;
  ]
