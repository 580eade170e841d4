module Graph = Rtr_graph.Graph
module Damage = Rtr_failure.Damage
module Flowsim = Rtr_des.Flowsim
module Randroute = Rtr_baselines.Randroute
module Route_table = Rtr_routing.Route_table
module View = Rtr_graph.View
module Metrics = Rtr_obs.Metrics

let paper_topo () = Rtr_topo.Paper_example.topology ()

let paper_damage g =
  Damage.of_failed g
    ~nodes:[ Rtr_topo.Paper_example.failed_router ]
    ~links:(Rtr_topo.Paper_example.cut_links ())

let quick_config scheme =
  { Flowsim.default_config with scheme; t_fail = 0.5; t_end = 4.0 }

(* --- randroute ------------------------------------------------------- *)

let test_randroute_deterministic () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let table = Route_table.compute (Damage.view damage) in
  let a = Randroute.create ~seed:42 g in
  let b = Randroute.create ~seed:42 g in
  let initiator = Rtr_topo.Paper_example.v 6 and dst = Rtr_topo.Paper_example.v 17 in
  for flow = 0 to 49 do
    let ra = Randroute.reroute a table ~flow ~initiator ~dst in
    let rb = Randroute.reroute b table ~flow ~initiator ~dst in
    match (ra, rb) with
    | Randroute.Rerouted x, Randroute.Rerouted y ->
        Alcotest.(check int) "same via" x.via y.via;
        Alcotest.(check (list int)) "same nodes" x.nodes y.nodes;
        Alcotest.(check int) "same cost" x.cost y.cost
    | Randroute.No_route, Randroute.No_route -> ()
    | _ -> Alcotest.fail "outcomes diverge between equal-seed instances"
  done

let test_randroute_routes_valid_and_spread () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let table = Route_table.compute (Damage.view damage) in
  let rr = Randroute.create ~seed:7 g in
  let initiator = Rtr_topo.Paper_example.v 6 and dst = Rtr_topo.Paper_example.v 17 in
  let vias = Hashtbl.create 8 in
  for flow = 0 to 199 do
    match Randroute.reroute rr table ~flow ~initiator ~dst with
    | Randroute.No_route -> Alcotest.fail "dst is reachable, expected a route"
    | Randroute.Rerouted { via; nodes; cost } ->
        Hashtbl.replace vias via ();
        (match nodes with
        | first :: _ -> Alcotest.(check int) "starts at initiator" initiator first
        | [] -> Alcotest.fail "empty route");
        Alcotest.(check int) "ends at dst" dst (List.nth nodes (List.length nodes - 1));
        (* consecutive nodes adjacent, and the walked cost matches *)
        let rec walk acc = function
          | a :: (b :: _ as rest) -> (
              match Graph.find_link g a b with
              | Some l ->
                  Alcotest.(check bool) "link survives" true (Damage.link_ok damage l);
                  walk (acc + Graph.cost g l ~src:a) rest
              | None -> Alcotest.fail "non-adjacent consecutive nodes")
          | _ -> acc
        in
        Alcotest.(check int) "cost is the walked cost" cost (walk 0 nodes)
  done;
  Alcotest.(check bool) "randomization spreads across intermediates" true
    (Hashtbl.length vias >= 2)

(* --- flowsim --------------------------------------------------------- *)

let stats_equal (a : Flowsim.stats) (b : Flowsim.stats) =
  Alcotest.(check int) "flows" a.flows b.flows;
  Alcotest.(check int) "offered" a.offered_ratems b.offered_ratems;
  Alcotest.(check int) "delivered" a.delivered_ratems b.delivered_ratems;
  Alcotest.(check int) "blackholed" a.blackholed_ratems b.blackholed_ratems;
  Alcotest.(check int) "dropped_recovery" a.dropped_recovery_ratems
    b.dropped_recovery_ratems;
  Alcotest.(check int) "dropped_no_route" a.dropped_no_route_ratems
    b.dropped_no_route_ratems;
  Alcotest.(check int) "broken" a.broken b.broken;
  Alcotest.(check int) "recovered" a.recovered b.recovered;
  Alcotest.(check (float 0.0)) "stretch_agg" a.stretch_agg b.stretch_agg;
  Alcotest.(check (float 0.0)) "stretch_max" a.stretch_max b.stretch_max;
  Alcotest.(check int) "base_max_load" a.base_max_load b.base_max_load;
  Alcotest.(check int) "rec_max_load" a.rec_max_load b.rec_max_load;
  Alcotest.(check int) "post_max_load" a.post_max_load b.post_max_load;
  Alcotest.(check int) "overloaded" a.overloaded_links b.overloaded_links;
  Alcotest.(check (array int)) "link loads" a.rec_link_loads b.rec_link_loads

let test_no_damage_full_delivery () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let flows = Flowsim.demand topo ~n:500 ~seed:3 in
  let stats = Flowsim.run topo (Damage.none g) (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check int) "all evaluated" 500 stats.Flowsim.flows;
  Alcotest.(check (float 1e-9)) "everything delivered" 1.0 stats.Flowsim.delivered_frac;
  Alcotest.(check int) "nothing broken" 0 stats.Flowsim.broken;
  Alcotest.(check bool) "base load positive" true (stats.Flowsim.base_max_load > 0)

let test_rtr_beats_no_recovery () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:2000 ~seed:5 in
  let off = Flowsim.run topo damage (quick_config Flowsim.No_recovery) flows in
  let on = Flowsim.run topo damage (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check bool) "damage breaks flows" true (off.Flowsim.broken > 0);
  Alcotest.(check int) "no recovery recovers nothing" 0 off.Flowsim.recovered;
  Alcotest.(check bool) "rtr recovers flows" true (on.Flowsim.recovered > 0);
  Alcotest.(check bool) "rtr delivers more" true
    (on.Flowsim.delivered_ratems > off.Flowsim.delivered_ratems);
  Alcotest.(check bool) "stretch at least 1" true (on.Flowsim.stretch_agg >= 1.0);
  Alcotest.(check bool) "stretch_max bounds stretch_agg" true
    (on.Flowsim.stretch_max >= on.Flowsim.stretch_agg)

let test_all_schemes_run () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:400 ~seed:11 in
  let none =
    Flowsim.run topo damage (quick_config Flowsim.No_recovery) flows
  in
  List.iter
    (fun scheme ->
      let s = Flowsim.run topo damage (quick_config scheme) flows in
      Alcotest.(check bool)
        (Flowsim.scheme_name scheme ^ " no worse than none")
        true
        (s.Flowsim.delivered_ratems >= none.Flowsim.delivered_ratems);
      Alcotest.(check bool)
        (Flowsim.scheme_name scheme ^ " delivered <= offered")
        true
        (s.Flowsim.delivered_ratems <= s.Flowsim.offered_ratems))
    [ Flowsim.Rtr_scheme; Flowsim.Fcp_scheme; Flowsim.Mrc_scheme;
      Flowsim.Randroute_scheme ]

let merge_all = function
  | first :: rest -> List.fold_left Flowsim.merge first rest
  | [] -> assert false

(* The recovery work of a run: these counters only move with work done
   once per pooled key, so they must not depend on the sharding. *)
let work_counters = [ "phase2.creates"; "phase2.sp_calcs"; "pqueue.pop" ]

let counted f =
  let totals () =
    let snap = Metrics.snapshot () in
    List.map
      (fun name ->
        Option.value ~default:0 (Metrics.Snapshot.counter snap name))
      work_counters
  in
  let before = totals () in
  let r = f () in
  (r, List.map2 ( - ) (totals ()) before)

(* Sharding must be invisible: one slice, irregular slices merged in
   order and a two-domain pool must agree exactly, including the
   per-link load arrays — and the recovery pool is filled once per key
   whatever the sharding, so the work counters agree too.  This is the
   property the CI jobs-invariance gate checks end to end. *)
let test_shard_invariance () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:600 ~seed:13 in
  List.iter
    (fun scheme ->
      let name = Flowsim.scheme_name scheme in
      let run eval =
        counted (fun () ->
            let ctx = Flowsim.context topo damage (quick_config scheme) in
            Flowsim.finish ctx (eval ctx))
      in
      let whole, w_whole =
        run (fun ctx -> Flowsim.eval_slice ctx flows ~lo:0 ~hi:600)
      in
      let sharded, w_sharded =
        run (fun ctx ->
            [ (0, 7); (7, 100); (100, 101); (101, 350); (350, 600) ]
            |> List.map (fun (lo, hi) -> Flowsim.eval_slice ctx flows ~lo ~hi)
            |> merge_all)
      in
      let parallel, w_parallel =
        run (fun ctx ->
            Array.init 16 (fun i -> (i * 600 / 16, (i + 1) * 600 / 16))
            |> Rtr_sim.Parallel.map ~jobs:2 (fun (lo, hi) ->
                   Flowsim.eval_slice ctx flows ~lo ~hi)
            |> Array.to_list |> merge_all)
      in
      stats_equal whole sharded;
      stats_equal whole parallel;
      Alcotest.(check (list int)) (name ^ " work, sharded") w_whole w_sharded;
      Alcotest.(check (list int)) (name ^ " work, two domains") w_whole
        w_parallel;
      if scheme = Flowsim.Rtr_scheme then
        Alcotest.(check bool) "rtr starts sessions" true (List.hd w_whole > 0))
    Rtr_sim.Experiments.congestion_schemes

(* Pass 2 allocates nothing per flow: on a warmed context (every pooled
   outcome already filled) a whole slice allocates only its
   accumulators, well under a word per flow.  The list- and
   option-building loop this replaced allocated ~390 words per flow
   here, so any per-hop allocation trips the bound. *)
let test_eval_allocation () =
  let preset = Option.get (Rtr_topo.Isp.find "AS209") in
  let topo = Rtr_topo.Isp.load preset in
  let table = Rtr_sim.Topo_cache.table (Rtr_sim.Topo_cache.shared topo) in
  let rng = Rtr_util.Rng.make 61 in
  let rec draw () =
    let d = (Rtr_sim.Scenario.generate topo table rng ()).Rtr_sim.Scenario.damage in
    if Damage.n_failed_links d > 0 then d else draw ()
  in
  let damage = draw () in
  let n = 10_000 in
  let flows = Flowsim.demand topo ~n ~seed:67 in
  List.iter
    (fun scheme ->
      let name = Flowsim.scheme_name scheme in
      let ctx = Flowsim.context topo damage (quick_config scheme) in
      ignore (Flowsim.eval_slice ctx flows ~lo:0 ~hi:n : Flowsim.acc);
      let w0 = Gc.minor_words () in
      let acc = Flowsim.eval_slice ctx flows ~lo:0 ~hi:n in
      let per_flow = (Gc.minor_words () -. w0) /. float_of_int n in
      let s = Flowsim.finish ctx acc in
      Alcotest.(check bool) (name ^ " breaks flows") true (s.Flowsim.broken > 0);
      if scheme = Flowsim.Rtr_scheme then
        Alcotest.(check bool) "rtr recovers flows" true (s.Flowsim.recovered > 0);
      if per_flow > 1.0 then
        Alcotest.failf "%s: %.2f minor words per flow (bound 1.0)" name per_flow)
    [ Flowsim.No_recovery; Flowsim.Rtr_scheme ]

let test_demand_deterministic () =
  let topo = paper_topo () in
  let a = Flowsim.demand topo ~n:300 ~seed:21 in
  let b = Flowsim.demand topo ~n:300 ~seed:21 in
  Alcotest.(check bool) "same demand" true (a = b);
  let c = Flowsim.demand topo ~n:300 ~seed:22 in
  Alcotest.(check bool) "seed changes demand" true (a <> c);
  Array.iter
    (fun f ->
      Alcotest.(check bool) "src <> dst" true (f.Flowsim.src <> f.Flowsim.dst);
      Alcotest.(check bool) "rate in 1..9" true (f.Flowsim.rate >= 1 && f.Flowsim.rate <= 9))
    a

(* A restoring episode mid-run: delivery must improve vs. letting the
   damage stand, exercising multi-era window bookkeeping. *)
let test_restore_episode_improves_delivery () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:800 ~seed:17 in
  let base = quick_config Flowsim.No_recovery in
  let stays = Flowsim.run topo damage base flows in
  let heals =
    Flowsim.run topo damage
      { base with episodes = [ (2.0, Damage.none g) ] }
      flows
  in
  Alcotest.(check bool) "restoration improves delivery" true
    (heals.Flowsim.delivered_ratems > stays.Flowsim.delivered_ratems);
  (* the restored router's sources offer load again in the healed era *)
  Alcotest.(check bool) "restoration restores offered load" true
    (heals.Flowsim.offered_ratems >= stays.Flowsim.offered_ratems);
  Alcotest.(check bool) "restoration improves delivered fraction" true
    (heals.Flowsim.delivered_frac > stays.Flowsim.delivered_frac)

let test_congestion_visible () =
  let topo = paper_topo () in
  let g = Rtr_topo.Topology.graph topo in
  let damage = paper_damage g in
  let flows = Flowsim.demand topo ~n:2000 ~seed:29 in
  let s = Flowsim.run topo damage (quick_config Flowsim.Rtr_scheme) flows in
  Alcotest.(check bool) "recovery max load positive" true (s.Flowsim.rec_max_load > 0);
  Alcotest.(check int) "per-link array has the max" s.Flowsim.rec_max_load
    (Array.fold_left max 0 s.Flowsim.rec_link_loads);
  (* the load CDF plumbing the report uses *)
  let cdf =
    Rtr_sim.Cdf.of_ints (Array.to_list s.Flowsim.rec_link_loads)
  in
  Alcotest.(check (float 1e-9)) "cdf max agrees"
    (float_of_int s.Flowsim.rec_max_load)
    (Rtr_sim.Cdf.maximum cdf)

let suite =
  [
    Alcotest.test_case "randroute deterministic" `Quick test_randroute_deterministic;
    Alcotest.test_case "randroute routes valid and spread" `Quick
      test_randroute_routes_valid_and_spread;
    Alcotest.test_case "no damage full delivery" `Quick test_no_damage_full_delivery;
    Alcotest.test_case "rtr beats no recovery" `Quick test_rtr_beats_no_recovery;
    Alcotest.test_case "all schemes run" `Quick test_all_schemes_run;
    Alcotest.test_case "shard invariance" `Quick test_shard_invariance;
    Alcotest.test_case "eval allocation" `Quick test_eval_allocation;
    Alcotest.test_case "demand deterministic" `Quick test_demand_deterministic;
    Alcotest.test_case "restore episode improves delivery" `Quick
      test_restore_episode_improves_delivery;
    Alcotest.test_case "congestion visible" `Quick test_congestion_visible;
  ]
