(* The repository benchmark.

     main.exe --workload repro|flows|rmap --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off: set-up
   first, then repeated passes of the workload for S seconds with more
   set-ups between them, reporting medians over passes (rmap: the slow
   side's 90th percentile).  --trace 1 is the separate traced run at jobs=1 that gives
   the per-layer metrics: one untraced warm-up pass (two domains, for
   the pool figures), one untraced jobs=1 pass as the overhead
   reference, then two traced passes whose exact work counters must
   agree.  Either way
   the last line of standard output is the JSON result. *)

module H = Harness

type metric = string * float * string

type workload = {
  presets : Rtr_topo.Isp.preset list;
  with_mrc : bool;
  end_to_end :
    seed:int -> seconds:float -> H.topo_state list -> int * int * metric list;
  warm_pass : seed:int -> H.topo_state list -> metric list;
  untraced_reference : seed:int -> H.topo_state list -> float;
  traced_pass :
    seed:int -> H.topo_state list -> float * metric list * metric list * (int * int);
}

let workloads =
  [
    ( "repro",
      {
        presets = Rtr_topo.Isp.table2;
        with_mrc = true;
        end_to_end = Repro.end_to_end;
        warm_pass = Repro.warm_pass;
        untraced_reference = Repro.untraced_reference;
        traced_pass = Repro.traced_pass;
      } );
    ( "flows",
      {
        presets = Rtr_topo.Isp.table2;
        with_mrc = true;
        end_to_end = Flows.end_to_end;
        warm_pass = Flows.warm_pass;
        untraced_reference = Flows.untraced_reference;
        traced_pass = Flows.traced_pass;
      } );
    ( "rmap",
      {
        presets = Rmap.presets;
        with_mrc = false;
        end_to_end = Rmap.end_to_end;
        warm_pass = Rmap.warm_pass;
        untraced_reference = Rmap.untraced_reference;
        traced_pass = Rmap.traced_pass;
      } );
  ]

(* Every per-layer metric, in report order.  A workload that does not
   exercise a layer reports it as 0. *)
let per_layer =
  [
    ("topo.load_s", "s");
    ("route_table.compute_s", "s");
    ("mrc.build_s", "s");
    ("mrc.recover_s", "s");
    ("scenario.generate_s", "s");
    ("scenario.areas", "count");
    ("scenario.classify_s", "s");
    ("scenario.paths_classified", "count");
    ("stream.write_s", "s");
    ("stream.read_s", "s");
    ("stream.bytes", "B");
    ("stream.records", "count");
    ("runner.evaluate_s", "s");
    ("runner.cases", "count");
    ("gc.words_per_case", "words");
    ("phase1.self_s", "s");
    ("phase1.runs", "count");
    ("phase1.hops_walked", "count");
    ("sweep.selects", "count");
    ("phase2.self_s", "s");
    ("phase2.creates", "count");
    ("phase2.sp_calcs", "count");
    ("phase2.cache_hit_frac", "frac");
    ("pqueue.pop", "count");
    ("spt.from_scratch", "count");
    ("spt.repairs", "count");
    ("view.allocs", "count");
    ("fcp.self_s", "s");
    ("flowsim.demand_s", "s");
    ("flowsim.context_s", "s");
    ("flowsim.eval_s", "s");
    ("flowsim.finish_s", "s");
    ("gc.words_per_flow", "words");
    ("flowsim.phase2_creates_per_kflow", "count");
    ("pool.busy_frac", "frac");
    ("pool.idle_s", "s");
    ("pool.tasks", "count");
    ("rmap.enumerate_s", "s");
    ("rmap.compile_s", "s");
    ("rmap.decode_s", "s");
    ("rmap.artifact_bytes", "B");
    ("rmap.hit_us_p50", "us");
    ("rmap.miss_us_p50", "us");
    ("rmap.fallback_frac", "frac");
    ("gc.words_per_lookup", "words");
    ("report.reduce_s", "s");
    ("report.render_s", "s");
    ("trace.overhead_frac", "frac");
    ("trace.coverage", "frac");
  ]

(* Set-up repetitions of the traced run. *)
let traced_setup_reps = 5

let traced_run ~seed w =
  (* Set-up spans give the topology, route-table and MRC layers, per
     set-up. *)
  H.tracing := true;
  let states, _ = H.setup_once ~shared:true ~with_mrc:w.with_mrc w.presets in
  for _ = 2 to traced_setup_reps do
    ignore (H.setup_once ~shared:false ~with_mrc:w.with_mrc w.presets)
  done;
  H.tracing := false;
  let per_setup name = H.total_s name /. float_of_int traced_setup_reps in
  let setup_layers =
    [
      ("topo.load_s", per_setup "topo.load", "s");
      ("route_table.compute_s", per_setup "route_table.compute", "s");
      ("mrc.build_s", per_setup "mrc.build", "s");
    ]
  in
  let pool = w.warm_pass ~seed states in
  (* The untraced reference also runs every lazily built per-domain
     structure (workspaces, metric cells) in at jobs=1, so both traced
     passes start from the same state. *)
  Gc.full_major ();
  let reference = w.untraced_reference ~seed states in
  let traced () =
    Gc.full_major ();
    H.tracing := true;
    let r = w.traced_pass ~seed states in
    H.tracing := false;
    r
  in
  let wall1, exact1, timed1, (att1, bad1) = traced () in
  let coverage = H.covered_s () /. wall1 in
  H.print_profile "first traced pass";
  let wall2, exact2, _, (att2, bad2) = traced () in
  (* The exact-count check: work counters and words-per-operation
     figures of two identical traced passes must agree exactly. *)
  let mismatched =
    List.filter
      (fun ((name, v1, _), (_, v2, _)) ->
        if v1 <> v2 then
          Printf.printf "exact-count check: %s = %.17g then %.17g\n" name v1 v2;
        v1 <> v2)
      (List.combine exact1 exact2)
  in
  let overhead = ((wall1 +. wall2) /. 2.0 /. reference) -. 1.0 in
  ( att1 + att2 + List.length exact1,
    bad1 + bad2 + List.length mismatched,
    setup_layers @ pool @ exact1 @ timed1
    @ [
        ("trace.overhead_frac", overhead, "frac");
        ("trace.coverage", coverage, "frac");
      ] )

(* Set-up time spent between two passes of the untraced run. *)
let setup_gap_s = 0.25

let end_to_end_run ~seed ~seconds w =
  let states, first = H.setup_once ~shared:true ~with_mrc:w.with_mrc w.presets in
  let setups = ref [ first ] in
  (H.between_passes :=
     fun () ->
       let t_end = H.now () +. setup_gap_s in
       let rec go () =
         let _, t = H.setup_once ~shared:false ~with_mrc:w.with_mrc w.presets in
         setups := t :: !setups;
         if H.now () < t_end then go ()
       in
       go ());
  let attempted, failed, metrics = w.end_to_end ~seed ~seconds states in
  (attempted, failed, ("setup_s", H.median_l !setups, "s") :: metrics)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref ""
  and seed = ref H.default_seed
  and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME repro, flows or rmap");
      ("--seed", Arg.Set_int seed, "N Input seed (default 7)");
      ("--seconds", Arg.Set_int seconds, "S Measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 Per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let seed = !seed in
  let attempted, failed, metrics =
    if !trace = 1 then traced_run ~seed w
    else end_to_end_run ~seed ~seconds:(float_of_int !seconds) w
  in
  H.remove_work_dir ();
  let metrics =
    if !trace = 1 then
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (n, _, _) -> n = name) metrics with
          | Some m -> m
          | None -> (name, 0.0, unit_))
        per_layer
    else metrics
  in
  Printf.printf "%s  seed %d  %s\n" !workload seed
    (if !trace = 1 then "traced (per-layer)" else "untraced (end-to-end)");
  List.iter
    (fun (name, v, unit_) -> Printf.printf "  %-34s %16.6f %s\n" name v unit_)
    metrics;
  (* Reported, not bounded: error_rate is 0 on a correct build, and the
     peak heap of the two-domain workloads moves by 20% and more from run
     to run with the timing of major GC cycles. *)
  Printf.printf "  %-34s %16.6f fraction (%d of %d operations failed)\n"
    "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "  %-34s %16.6f MB\n" "heap_peak_mb" (H.heap_peak_mb ());
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit_)
          metrics))
