module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module View = Rtr_graph.View
module Scenario = Rtr_sim.Scenario
module PE = Rtr_topo.Paper_example

let paper_scenario () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  (* An explicit area is awkward for the worked example, so test the
     classifier against a generated one and the worked damage against
     Scenario-independent expectations elsewhere. *)
  let rng = Rtr_util.Rng.make 17 in
  (topo, table, Scenario.generate topo table rng ())

let test_cases_are_valid_detections () =
  let topo, table, s = paper_scenario () in
  let g = Rtr_topo.Topology.graph topo in
  ignore table;
  List.iter
    (fun (c : Scenario.case) ->
      Alcotest.(check bool) "initiator live" true
        (Damage.node_ok s.Scenario.damage c.Scenario.initiator);
      let link =
        Option.get (Graph.find_link g c.Scenario.initiator c.Scenario.trigger)
      in
      Alcotest.(check bool) "trigger locally unreachable" true
        (Damage.neighbor_unreachable s.Scenario.damage c.Scenario.trigger link);
      (* The trigger is the default next hop towards the destination. *)
      Alcotest.(check (option int)) "trigger is the next hop"
        (Some c.Scenario.trigger)
        (Rtr_routing.Route_table.next_hop s.Scenario.table
           ~src:c.Scenario.initiator ~dst:c.Scenario.dst))
    s.Scenario.cases

let test_kinds_match_reachability () =
  let _, _, s = paper_scenario () in
  let node_ok = Damage.node_ok s.Scenario.damage in
  let view = Damage.view s.Scenario.damage in
  List.iter
    (fun (c : Scenario.case) ->
      let reachable =
        node_ok c.Scenario.dst
        && Rtr_graph.Bfs.reachable view c.Scenario.initiator c.Scenario.dst
      in
      match c.Scenario.kind with
      | Scenario.Recoverable ->
          Alcotest.(check bool) "recoverable reachable" true reachable;
          Alcotest.(check bool) "has yardstick" true
            (Option.is_some c.Scenario.shortest_after)
      | Scenario.Irrecoverable ->
          Alcotest.(check bool) "irrecoverable unreachable" false reachable;
          Alcotest.(check (option int)) "no yardstick" None
            c.Scenario.shortest_after)
    s.Scenario.cases

let test_cases_deduplicated () =
  let _, _, s = paper_scenario () in
  let keys =
    List.map
      (fun (c : Scenario.case) -> (c.Scenario.initiator, c.Scenario.dst))
      s.Scenario.cases
  in
  Alcotest.(check int) "unique (initiator, dst) pairs"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_of_area_deterministic () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  let area =
    Rtr_failure.Area.disc ~center:(Rtr_geom.Point.make 310.0 300.0)
      ~radius:50.0
  in
  let s1 = Scenario.of_area topo table area in
  let s2 = Scenario.of_area topo table area in
  Alcotest.(check int) "same cases" (List.length s1.Scenario.cases)
    (List.length s2.Scenario.cases)

let paper_damage g =
  Damage.of_failed g ~nodes:[ PE.failed_router ] ~links:(PE.cut_links ())

let test_count_failed_paths () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  (* No damage: nothing failed. *)
  let r0, i0 = Scenario.count_failed_paths topo table (Damage.none g) in
  Alcotest.(check (pair int int)) "no failures" (0, 0) (r0, i0);
  (* The worked-example damage.  The 17 live routers each lose their
     path to the dead v10, the only irrecoverable ones: the cut leaves
     the survivors connected, so the other failed paths recover. *)
  let damage = paper_damage g in
  Alcotest.(check (pair int int)) "worked example" (86, 17)
    (Scenario.count_failed_paths topo table damage);
  Alcotest.(check (pair int int)) "agrees with the walk"
    (Rtr_check.Classify_walk.count_failed_paths topo table damage)
    (Scenario.count_failed_paths topo table damage)

(* [scenario.classify_visits] on the worked example, added once per
   call: every index entry of a dead link, every routing-tree node the
   DFS pops, and one table probe per (failed dst, failed router) —
   here the single probe of the dead v10 against itself.  The walk it
   replaces takes one step per hop of all 18 * 17 default paths. *)
let test_classify_visits () =
  let topo = PE.topology () in
  let g = Rtr_topo.Topology.graph topo in
  let table = Rtr_routing.Route_table.compute (View.full g) in
  let damage = paper_damage g in
  let visits = Rtr_obs.Metrics.counter "scenario.classify_visits" in
  let v0 = Rtr_obs.Metrics.Counter.value visits in
  ignore (Scenario.count_failed_paths topo table damage);
  Alcotest.(check int) "visits" 155 (Rtr_obs.Metrics.Counter.value visits - v0);
  let v1 = Rtr_obs.Metrics.Counter.value visits in
  ignore (Scenario.count_failed_paths topo table (Damage.none g));
  Alcotest.(check int) "no damage, no visits" 0
    (Rtr_obs.Metrics.Counter.value visits - v1)

(* A weighted random graph on [n] nodes, split into two components when
   [split] (so some pairs have no pre-failure route), with at least one
   failed router (failed destinations and failed initiators) and a
   random share of failed routers and links. *)
let random_instance (seed, n, extra, split) =
  let rng = Random.State.make [| seed |] in
  let k = if split then n / 2 else n in
  let part ~seed ~n ~shift =
    if n < 2 then []
    else
      let h =
        Rtr_check.Gen.random_weighted_graph ~seed ~n ~extra ~max_cost:5
      in
      Graph.fold_links h ~init:[] ~f:(fun acc l a b ->
          ( a + shift,
            b + shift,
            Graph.cost h l ~src:a,
            Graph.cost h l ~src:b )
          :: acc)
  in
  let edges =
    part ~seed ~n:k ~shift:0 @ part ~seed:(seed + 1) ~n:(n - k) ~shift:k
  in
  let g = Graph.build_weighted ~n ~edges in
  let pts =
    Array.init n (fun _ ->
        Rtr_geom.Point.make
          (Random.State.float rng 1000.)
          (Random.State.float rng 1000.))
  in
  let topo =
    Rtr_topo.Topology.create ~name:"random" g
      (Rtr_topo.Embedding.of_points pts)
  in
  let nodes =
    Random.State.int rng n
    :: List.filter (fun _ -> Random.State.int rng 6 = 0) (List.init n Fun.id)
  in
  let links =
    List.filter
      (fun _ -> Random.State.int rng 6 = 0)
      (List.init (Graph.n_links g) Fun.id)
  in
  (topo, Damage.of_failed g ~nodes ~links)

let index_matches_walk =
  QCheck.Test.make ~name:"link index classification equals the walk"
    ~count:200
    QCheck.(quad (int_bound 100_000) (int_range 2 24) (int_range 0 20) bool)
    (fun params ->
      let topo, damage = random_instance params in
      let table =
        Rtr_routing.Route_table.compute
          (View.full (Rtr_topo.Topology.graph topo))
      in
      Scenario.count_failed_paths topo table damage
      = Rtr_check.Classify_walk.count_failed_paths topo table damage
      && Scenario.cases_of_damage topo table damage
         = Rtr_check.Classify_walk.cases_of_damage topo table damage)

(* Two domains force the index of one fresh table at once: whichever
   build is published, both count the same. *)
let test_index_race () =
  let topo = Rtr_topo.Isp.load_by_name "AS209" in
  let g = Rtr_topo.Topology.graph topo in
  let damage =
    Damage.of_failed g ~nodes:[ 0; 7; 19 ] ~links:[ 3; 40; 77 ]
  in
  let expected =
    Rtr_check.Classify_walk.count_failed_paths topo
      (Rtr_routing.Route_table.compute (View.full g))
      damage
  in
  for _ = 1 to 3 do
    let table = Rtr_routing.Route_table.compute (View.full g) in
    let count () = Scenario.count_failed_paths topo table damage in
    let other = Domain.spawn count in
    let mine = count () in
    Alcotest.(check (pair int int)) "this domain" expected mine;
    Alcotest.(check (pair int int)) "other domain" expected (Domain.join other)
  done

let suite =
  [
    Alcotest.test_case "cases are valid detections" `Quick
      test_cases_are_valid_detections;
    Alcotest.test_case "kinds match reachability" `Quick
      test_kinds_match_reachability;
    Alcotest.test_case "cases deduplicated" `Quick test_cases_deduplicated;
    Alcotest.test_case "of_area deterministic" `Quick test_of_area_deterministic;
    Alcotest.test_case "count failed paths" `Quick test_count_failed_paths;
    Alcotest.test_case "classify visits counted" `Quick test_classify_visits;
    Alcotest.test_case "index race between domains" `Quick test_index_race;
    QCheck_alcotest.to_alcotest index_matches_walk;
  ]
