(* Workload [flows]: the flow-level congestion sweep — 8 ASes x 5
   recovery schemes, one disc failure and one gravity demand matrix per
   AS, evaluated on two domains.  The same calls [Experiments.congestion_data] makes
   ([Flowsim.demand], [context], [eval_slice] over its fixed 64-chunk
   grid, [merge], [finish]), made here so each stage can be timed.
   Almost all of the work is per flow, with phase-2 sessions few and
   shared, so this is the workload that shows per-flow cost and
   allocation; [repro] never runs the flow engine. *)

module H = Harness
module Isp = Rtr_topo.Isp
module Flowsim = Rtr_des.Flowsim
module Experiments = Rtr_sim.Experiments
module Metrics = Rtr_obs.Metrics

(* Flows per AS: one pass evaluates 8 x 5 x this many flows. *)
let flows_per_topo = 10_000
let chunks = 64

(* Digest of the congestion table at the default seed. *)
let expected_digest = "1d8d97b52caf32b64baabe47374d3685"

(* [Experiments.congestion_data]'s per-topology failure: keep drawing
   discs from the sequential stream until one fails a link.  The
   failures are always those of the default seed, and the run's seed
   varies the demand: one failure draw can make a scheme's row several
   times slower, and this workload measures per-flow cost, not the luck
   of the draw. *)
let draw_damage (st : H.topo_state) =
  H.span "scenario.generate" @@ fun () ->
  let rng =
    Rtr_util.Rng.make (H.default_seed + st.H.preset.Isp.seed + 47)
  in
  let rec draw tries =
    let d =
      (Rtr_sim.Scenario.generate st.H.topo st.H.table rng ()).Rtr_sim.Scenario.damage
    in
    if Rtr_failure.Damage.n_failed_links d > 0 || tries > 64 then d
    else draw (tries + 1)
  in
  draw 0

type pass = {
  seed : int;
  wall : float;
  demand_wall : float;
  drawn : int;  (** flows drawn by [Flowsim.demand] *)
  eval_wall : float;
  flows : int;  (** flows evaluated, summed over AS x scheme *)
  row_us : float array;
      (** per congestion-table row (one scheme on one AS): context,
          evaluation and finish *)
  checked : int;
  violations : int;
  digest : string;
  words_eval : float;
  counters : Metrics.Snapshot.t * Metrics.Snapshot.t;
}

(* Delivered + blackholed + dropped must account for every offered
   rate-millisecond. *)
let conserved (s : Flowsim.stats) =
  s.Flowsim.delivered_ratems + s.Flowsim.blackholed_ratems
  + s.Flowsim.dropped_recovery_ratems + s.Flowsim.dropped_no_route_ratems
  = s.Flowsim.offered_ratems

let pass ~seed ~jobs states () =
  let before = Metrics.snapshot () in
  let t0 = H.now () in
  let demand_wall = ref 0.0 and eval_wall = ref 0.0 and drawn = ref 0 in
  let words_eval = ref 0.0 in
  let row_us = ref [] in
  let data =
    List.map
      (fun (st : H.topo_state) ->
        let damage = draw_damage st in
        let d0 = H.now () in
        let flows =
          H.span "flowsim.demand" @@ fun () ->
          Flowsim.demand st.H.topo ~n:flows_per_topo
            ~seed:(seed + st.H.preset.Isp.seed + 53)
        in
        demand_wall := !demand_wall +. (H.now () -. d0);
        let n = Array.length flows in
        drawn := !drawn + n;
        let bounds =
          Array.init chunks (fun i -> (i * n / chunks, (i + 1) * n / chunks))
        in
        let per_scheme =
          List.map
            (fun scheme ->
              let r0 = H.now_ns () in
              let fcfg =
                {
                  Flowsim.default_config with
                  Flowsim.scheme;
                  seed = seed + st.H.preset.Isp.seed;
                }
              in
              let ctx =
                H.span "flowsim.context" @@ fun () ->
                Flowsim.context st.H.topo damage ?mrc:st.H.mrc fcfg
              in
              let w0 = Gc.minor_words () in
              let e0 = H.now () in
              let accs =
                Rtr_sim.Parallel.map ~jobs
                  (fun (lo, hi) ->
                    H.span "flowsim.eval" @@ fun () ->
                    Flowsim.eval_slice ctx flows ~lo ~hi)
                  bounds
              in
              eval_wall := !eval_wall +. (H.now () -. e0);
              words_eval := !words_eval +. (Gc.minor_words () -. w0);
              let stats =
                H.span "flowsim.finish" @@ fun () ->
                let merged =
                  Array.fold_left Flowsim.merge accs.(0)
                    (Array.sub accs 1 (chunks - 1))
                in
                Flowsim.finish ctx merged
              in
              row_us := H.since_us r0 :: !row_us;
              (scheme, stats))
            Experiments.congestion_schemes
        in
        (st.H.preset, per_scheme))
      states
  in
  let table =
    H.span "report.render" @@ fun () ->
    Rtr_sim.Report.render_table (Experiments.congestion_table data)
  in
  let wall = H.now () -. t0 in
  let after = Metrics.snapshot () in
  let all_stats = List.concat_map snd data in
  {
    seed;
    wall;
    demand_wall = !demand_wall;
    drawn = !drawn;
    eval_wall = !eval_wall;
    flows =
      List.fold_left (fun acc (_, s) -> acc + s.Flowsim.flows) 0 all_stats;
    row_us = Array.of_list !row_us;
    checked = List.length all_stats;
    violations =
      List.length (List.filter (fun (_, s) -> not (conserved s)) all_stats);
    digest = Digest.to_hex (Digest.string table);
    words_eval = !words_eval;
    counters = (before, after);
  }

(* Operations checked: the conservation identity of every (AS, scheme)
   row, plus the congestion-table digest at the default seed. *)
let checks passes =
  H.checks ~what:"flows: congestion-table" ~expected:expected_digest
    (List.map (fun p -> (p.checked, p.violations, p.seed, p.digest)) passes)

let end_to_end ~seed ~seconds states =
  let passes =
    H.repeat ~seconds (fun k ->
        pass ~seed:(H.pass_seed seed k) ~jobs:H.jobs states ())
  in
  let attempted, failed = checks passes in
  ( attempted,
    failed,
    H.pass_metrics
      (List.map
         (fun p ->
           ( p.wall,
             float_of_int p.flows /. p.eval_wall,
             float_of_int p.drawn /. p.demand_wall,
             p.row_us ))
         passes) )

let traced_pass ~seed states =
  Hashtbl.reset H.profile;
  let p = pass ~seed ~jobs:1 states () in
  let before, after = p.counters in
  let c name = float_of_int (H.delta before after name) in
  let flows = float_of_int p.flows in
  let exact =
    [
      ("gc.words_per_flow", H.ratio p.words_eval flows, "words");
      ( "flowsim.phase2_creates_per_kflow",
        H.ratio (1000.0 *. c "phase2.creates") flows,
        "count" );
    ]
    @ H.graph_counters before after
  in
  let timed =
    [
      ("scenario.generate_s", H.self_s "scenario.generate", "s");
      ("flowsim.demand_s", H.self_s "flowsim.demand", "s");
      ("flowsim.context_s", H.self_s "flowsim.context", "s");
      ("flowsim.eval_s", H.self_s "flowsim.eval", "s");
      ("flowsim.finish_s", H.self_s "flowsim.finish", "s");
      ("report.render_s", H.self_s "report.render", "s");
    ]
  in
  (p.wall, exact, timed, checks [ p ])

let warm_pass ~seed states =
  H.pool_metrics (fun () -> (pass ~seed ~jobs:H.jobs states ()).eval_wall)

let untraced_reference ~seed states = (pass ~seed ~jobs:1 states ()).wall
