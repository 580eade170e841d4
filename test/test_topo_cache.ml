module Graph = Rtr_graph.Graph
module Topo_cache = Rtr_sim.Topo_cache
module Metrics = Rtr_obs.Metrics
open Rtr_geom

let c_table_hits = Metrics.counter "topo_cache.table_hits"
let c_table_misses = Metrics.counter "topo_cache.table_misses"

let make_topo name =
  let pts =
    [|
      Point.make 0.0 0.0;
      Point.make 10.0 0.0;
      Point.make 0.0 10.0;
      Point.make 10.0 10.0;
    |]
  in
  let g = Graph.build ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Rtr_topo.Topology.create ~name g (Rtr_topo.Embedding.of_points pts)

(* The headline BENCH_0003 bug: every stage built a private cache, so
   [topo_cache.table_hits] stayed 0 across a whole run.  [shared] must
   hand the same cache back for the same loaded topology... *)
let test_shared_is_shared () =
  let topo = make_topo "tc-shared" in
  let c1 = Topo_cache.shared topo in
  let c2 = Topo_cache.shared topo in
  Alcotest.(check bool) "same cache instance" true (c1 == c2)

(* ...so a repeated table demand is a hit, not a recompute. *)
let test_repeated_table_demand_hits () =
  let topo = make_topo "tc-hits" in
  let h0 = Metrics.Counter.value c_table_hits
  and m0 = Metrics.Counter.value c_table_misses in
  let t1 = Topo_cache.table (Topo_cache.shared topo) in
  Alcotest.(check int) "first demand misses" (m0 + 1)
    (Metrics.Counter.value c_table_misses);
  let t2 = Topo_cache.table (Topo_cache.shared topo) in
  Alcotest.(check int) "second demand hits" (h0 + 1)
    (Metrics.Counter.value c_table_hits);
  Alcotest.(check int) "no second compute" (m0 + 1)
    (Metrics.Counter.value c_table_misses);
  Alcotest.(check bool) "same table" true (t1 == t2)

(* A distinct topology that happens to reuse a name must not inherit the
   stale cache (the physical-equality guard). *)
let test_same_name_distinct_topo_gets_fresh_cache () =
  let a = make_topo "tc-alias" in
  let b = make_topo "tc-alias" in
  let ca = Topo_cache.shared a in
  let cb = Topo_cache.shared b in
  Alcotest.(check bool) "fresh cache for fresh topo" false (ca == cb);
  Alcotest.(check bool) "replacement is stable" true (cb == Topo_cache.shared b)

let suite =
  [
    Alcotest.test_case "shared returns one cache per topology" `Quick
      test_shared_is_shared;
    Alcotest.test_case "repeated table demand is a hit" `Quick
      test_repeated_table_demand_hits;
    Alcotest.test_case "same name, distinct topo: fresh cache" `Quick
      test_same_name_distinct_topo_gets_fresh_cache;
  ]
