(* Workload [repro]: the paper's Sec. IV evaluation on the eight
   Table-II ASes through the staged on-disk pipeline —
   [Pipeline.generate], [Stream.write]/[open_reader], [Pipeline.evaluate]
   on two domains into a [Shard_store] shard, [Experiments.reduce_shards],
   then Tables III/IV and Figs. 7-13.  This is what the repository
   exists to produce: per-case recovery (phase 1, phase 2, FCP, MRC),
   failed-path classification and the stream codec do all of the work;
   the flow engine and the recovery map do none. *)

module H = Harness
module Isp = Rtr_topo.Isp
module Experiments = Rtr_sim.Experiments
module Pipeline = Rtr_sim.Pipeline
module Stream = Rtr_sim.Stream
module Shard_store = Rtr_sim.Shard_store
module Runner = Rtr_sim.Runner
module Report = Rtr_sim.Report
module Scenario = Rtr_sim.Scenario
module Topo_cache = Rtr_sim.Topo_cache
module Metrics = Rtr_obs.Metrics

(* Recoverable and irrecoverable cases per topology (the paper used
   10,000 of each), and Fig. 11 failure areas per radius (paper:
   1,000).  One pass takes a few seconds on two cores, so a run holds
   enough passes for a steady median. *)
let quota = 1000
let fig11_areas = 20

(* Digest of the rendered tables and figures at the default seed.
   Any change to a reported number changes it. *)
let expected_digest = "6c0cf6951fe90cae2deda24b8870f3e6"

let config ~seed =
  {
    Experiments.presets = Isp.table2;
    recoverable_per_topo = quota;
    irrecoverable_per_topo = quota;
    seed;
    mrc_k = None;
    jobs = H.jobs;
  }

(* Fig. 11 through the scenario layer's public calls, so the traced run
   can time failed-path classification.  The figure's metadata and
   radii come from the library's own [fig11] at zero areas; the points
   are recomputed exactly as it computes them (same RNG stream). *)
let paths_classified = ref 0

let fig11_traced (config : Experiments.config) =
  let meta = Experiments.fig11 ~areas_per_radius:0 config in
  let series =
    List.map2
      (fun (preset : Isp.preset) (s : Experiments.series) ->
        let topo = Isp.load preset in
        let table = Topo_cache.table (Topo_cache.shared topo) in
        let rng =
          Rtr_util.Rng.make (config.Experiments.seed + preset.Isp.seed + 11)
        in
        let points =
          List.map
            (fun (radius, _) ->
              let rec_total = ref 0 and irr_total = ref 0 in
              for _ = 1 to fig11_areas do
                let area =
                  Rtr_failure.Area.random_disc rng ~r_min:radius ~r_max:radius
                    ()
                in
                let r, i =
                  H.span "scenario.classify" @@ fun () ->
                  Scenario.count_failed_paths topo table
                    (Rtr_failure.Damage.apply topo area)
                in
                paths_classified := !paths_classified + r + i;
                rec_total := !rec_total + r;
                irr_total := !irr_total + i
              done;
              ( radius,
                100.0
                *. Rtr_sim.Stats.ratio !irr_total (!rec_total + !irr_total) ))
            s.Experiments.points
        in
        { s with Experiments.points })
      config.Experiments.presets meta.Experiments.series
  in
  { meta with Experiments.series }

(* Every table and figure, each timed from the reduced data to its
   rendered text.  Returns the rendering, the per-artifact times (us),
   and the failure areas Fig. 11 drew and the time it took (s). *)
let render ~detail config data =
  H.span "report.render" @@ fun () ->
  let fig11_areas_drawn = ref 0 and fig11_s = ref 0.0 in
  let tbl t () = Report.render_table (t data)
  and fig f () = Report.render_figure (f data) in
  let fig11 () =
    let t0 = H.now () in
    let f =
      if detail then fig11_traced config
      else Experiments.fig11 ~areas_per_radius:fig11_areas config
    in
    fig11_s := H.now () -. t0;
    List.iter
      (fun (s : Experiments.series) ->
        fig11_areas_drawn :=
          !fig11_areas_drawn + (fig11_areas * List.length s.Experiments.points))
      f.Experiments.series;
    Report.render_figure f
  in
  let artifacts =
    List.map
      (fun f ->
        let t0 = H.now_ns () in
        let text = f () in
        (text, H.since_us t0))
      [
        fig Experiments.fig7;
        tbl Experiments.table3;
        fig Experiments.fig8;
        fig Experiments.fig9;
        fig Experiments.fig10;
        fig11;
        fig Experiments.fig12;
        fig Experiments.fig13;
        tbl Experiments.table4;
      ]
  in
  ( String.concat "\n" (List.map fst artifacts),
    Array.of_list (List.map snd artifacts),
    !fig11_areas_drawn,
    !fig11_s )

(* Theorem 2: every recovered recoverable RTR case has stretch exactly
   1.0.  Returns (cases checked, violations). *)
let theorem2 data =
  List.fold_left
    (fun (n, bad) (d : Experiments.topo_data) ->
      let n = n + List.length d.Experiments.irrecoverable in
      List.fold_left
        (fun (n, bad) (r : Runner.result) ->
          let ok =
            (not r.Runner.rtr_recovered) || r.Runner.rtr_stretch = Some 1.0
          in
          (n + 1, if ok then bad else bad + 1))
        (n, bad) d.Experiments.recoverable)
    (0, 0) data

(* The traced run's view behind [Runner.run_scenario]: the same records
   through phase 1, phase 2 ([Rtr.start ~batched:true], then every
   [Rtr.recover] of the session), then FCP and MRC, grouped by session
   exactly as the runner groups them.  The RTR legs come first because
   a batched session's tree expires once another SPT runs here. *)
let replay states (records : Stream.scenario list) =
  List.iter
    (fun (r : Stream.scenario) ->
      let (st : H.topo_state) = states.(r.Stream.topo) in
      let sc =
        H.span "stream.decode" @@ fun () ->
        Stream.to_scenario ~topo:st.H.topo ~table:st.H.table r
      in
      let topo = sc.Scenario.topo and damage = sc.Scenario.damage in
      let mrc = Option.get st.H.mrc in
      let cases = Array.of_list sc.Scenario.cases in
      let groups =
        H.span "runner.group" @@ fun () ->
        Runner.group_by_session cases (fun (c : Scenario.case) ->
            (c.Scenario.initiator, c.Scenario.trigger))
      in
      List.iter
        (fun ((initiator, trigger), idxs) ->
          ignore
            ( H.span "phase1.run" @@ fun () ->
              Rtr_core.Phase1.run topo damage ~initiator ~trigger () );
          let s =
            H.span "phase2.start" @@ fun () ->
            Rtr_core.Rtr.start topo damage ~batched:true ~initiator ~trigger ()
          in
          List.iter
            (fun i ->
              let dst = cases.(i).Scenario.dst in
              H.span "phase2.recover" @@ fun () ->
              match Rtr_core.Rtr.recover s ~dst with
              | Rtr_core.Rtr.Recovered _ ->
                  ignore (Rtr_core.Rtr.recovery_distance s ~dst)
              | Rtr_core.Rtr.Unreachable_in_view | Rtr_core.Rtr.False_path _ ->
                  ())
            idxs;
          List.iter
            (fun i ->
              let dst = cases.(i).Scenario.dst in
              ignore
                ( H.span "fcp.run" @@ fun () ->
                  Rtr_baselines.Fcp.run topo damage ~initiator ~dst );
              ignore
                ( H.span "mrc.recover" @@ fun () ->
                  Rtr_baselines.Mrc.recover mrc damage ~initiator ~trigger ~dst
                ))
            idxs)
        groups)
    records

type pass = {
  seed : int;
  wall : float;
  scenario_wall : float;
      (** [Pipeline.generate] and Fig. 11: drawing and classifying
          failure areas *)
  scenario_areas : int;  (** failure areas drawn by those two stages *)
  eval_wall : float;
  cases : int;
  render_us : float array;  (** per table or figure *)
  checked : int;
  violations : int;
  digest : string;
  records : int;
  results : int;
  bytes : int;
  areas : int;
  words_eval : float;  (** minor words allocated during evaluate *)
  counters : Metrics.Snapshot.t * Metrics.Snapshot.t;
  records_list : Stream.scenario list;
}

(* One pass, generation to the last rendered figure.  [detail] (the
   traced run and its reference) computes Fig. 11 with [fig11_traced]. *)
let pass ~seed ~jobs ~detail () =
  let dir = H.work_dir () in
  let stream_path = Filename.concat dir "scenarios.jsonl" in
  let shard_path = Filename.concat dir "shard0.jsonl" in
  let before = Metrics.snapshot () in
  let t0 = H.now () in
  let header, records =
    H.span "scenario.generate" @@ fun () ->
    Pipeline.generate ~presets:Isp.table2 ~rec_quota:quota ~irr_quota:quota
      ~seed ~mrc_k:None ()
  in
  let gen_wall = H.now () -. t0 in
  H.span "stream.write" (fun () -> Stream.write stream_path header records);
  let header, next =
    H.span "stream.read" @@ fun () -> Stream.open_reader stream_path
  in
  let count = header.Stream.count in
  let writer =
    match
      Shard_store.open_writer ~path:shard_path ~resume:false ~shard:0 ~shards:1
        ~count
    with
    | Shard_store.Writer (w, _) -> w
    | Shard_store.Complete -> failwith "fresh shard reported complete"
  in
  let next () = H.span "stream.read" next in
  let emit res = H.span "stream.write" (fun () -> Shard_store.append writer res) in
  let w0 = Gc.minor_words () in
  let e0 = H.now () in
  let mrc =
    H.span "runner.evaluate" @@ fun () ->
    Pipeline.evaluate ~jobs ~header ~next ~emit ()
  in
  let eval_wall = H.now () -. e0 in
  let words_eval = Gc.minor_words () -. w0 in
  H.span "stream.write" (fun () -> Shard_store.finish writer ~mrc);
  let loaded = H.span "stream.read" (fun () -> Shard_store.load shard_path) in
  let data =
    H.span "report.reduce" @@ fun () ->
    Experiments.reduce_shards ~header [ loaded ]
  in
  let rendered, render_us, fig11_areas_drawn, fig11_s =
    render ~detail (config ~seed) data
  in
  let wall = H.now () -. t0 in
  let after = Metrics.snapshot () in
  let bytes = H.file_bytes stream_path + H.file_bytes shard_path in
  Sys.remove stream_path;
  Sys.remove shard_path;
  let checked, violations = theorem2 data in
  let areas =
    List.fold_left
      (fun acc (s : Stream.topo_stat) -> acc + s.Stream.areas)
      0 header.Stream.topos
  in
  {
    seed;
    wall;
    scenario_wall = gen_wall +. fig11_s;
    scenario_areas = areas + fig11_areas_drawn;
    eval_wall;
    cases = H.delta before after "runner.cases";
    render_us;
    checked;
    violations;
    digest = Digest.to_hex (Digest.string rendered);
    records = count;
    results = List.length loaded.Shard_store.results;
    bytes;
    areas;
    words_eval;
    counters = (before, after);
    records_list = records;
  }

(* Operations checked: every evaluated case (Theorem 2), plus the
   rendered-output digest at the default seed. *)
let checks passes =
  H.checks ~what:"repro: rendered" ~expected:expected_digest
    (List.map (fun p -> (p.checked, p.violations, p.seed, p.digest)) passes)

let end_to_end ~seed ~seconds _states =
  let passes =
    H.repeat ~seconds (fun k ->
        pass ~seed:(H.pass_seed seed k) ~jobs:H.jobs ~detail:false ())
  in
  let attempted, failed = checks passes in
  ( attempted,
    failed,
    H.pass_metrics
      (List.map
         (fun p ->
           ( p.wall,
             float_of_int p.cases /. p.eval_wall,
             float_of_int p.scenario_areas /. p.scenario_wall,
             p.render_us ))
         passes) )

(* Per-layer figures of one traced pass at jobs=1 (plus the replay). *)
let traced_pass ~seed states =
  let states = Array.of_list states in
  Hashtbl.reset H.profile;
  paths_classified := 0;
  let p = pass ~seed ~jobs:1 ~detail:true () in
  let t0 = H.now () in
  replay states p.records_list;
  let wall = p.wall +. (H.now () -. t0) in
  let before, after = p.counters in
  let exact =
    [
      ("scenario.areas", float_of_int p.areas, "count");
      ("scenario.paths_classified", float_of_int !paths_classified, "count");
      ("stream.bytes", float_of_int p.bytes, "B");
      ("stream.records", float_of_int (p.records + p.results), "count");
      ("runner.cases", float_of_int p.cases, "count");
      ("gc.words_per_case", H.ratio p.words_eval (float_of_int p.cases), "words");
    ]
    @ H.graph_counters before after
  in
  let timed =
    [
      ("scenario.generate_s", H.self_s "scenario.generate", "s");
      ("scenario.classify_s", H.self_s "scenario.classify", "s");
      ("stream.write_s", H.self_s "stream.write", "s");
      ("stream.read_s", H.self_s "stream.read" +. H.self_s "stream.decode", "s");
      ("runner.evaluate_s", H.self_s "runner.evaluate", "s");
      ("phase1.self_s", H.self_s "phase1.run", "s");
      ( "phase2.self_s",
        H.total_s "phase2.start" -. H.total_s "phase1.run"
        +. H.total_s "phase2.recover",
        "s" );
      ("fcp.self_s", H.self_s "fcp.run", "s");
      ("mrc.recover_s", H.self_s "mrc.recover", "s");
      ("report.reduce_s", H.self_s "report.reduce", "s");
      ("report.render_s", H.self_s "report.render", "s");
    ]
  in
  (wall, exact, timed, checks [ p ])

let warm_pass ~seed _states =
  H.pool_metrics (fun () -> (pass ~seed ~jobs:H.jobs ~detail:false ()).eval_wall)

(* The untraced reference for [trace.overhead_frac]: the same code (a
   pass at jobs=1 plus the replay) with spans off. *)
let untraced_reference ~seed states =
  let p = pass ~seed ~jobs:1 ~detail:true () in
  let t0 = H.now () in
  replay (Array.of_list states) p.records_list;
  p.wall +. (H.now () -. t0)
