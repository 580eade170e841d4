(* What every workload shares: the nanosecond clock, the in-memory span
   profile of the traced run, sample statistics, metric snapshots and
   the set-up timer. *)

module Metrics = Rtr_obs.Metrics

(* CLOCK_MONOTONIC in nanoseconds.  [Unix.gettimeofday] (and
   [Trace.now], which reads it) resolves 1 us at best, too coarse for
   1-2 us recovery-map hits. *)
let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let since_us t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3

(* ------------------------------------------------------------------ *)
(* Spans.  The traced run wraps every call into a layer's public
   function in [span]; spans are aggregated per name in memory (a query
   loop makes ~10^5 of them) and printed when the run ends.  A span's
   self time is its duration minus the time its child spans cover. *)

type agg = { mutable count : int; mutable total : float; mutable self : float }

let tracing = ref false
let profile : (string, agg) Hashtbl.t = Hashtbl.create 64

(* Child-time accumulators of the open spans, innermost first. *)
let open_spans : float ref list ref = ref []

let record name t0 children =
  let dur = now () -. t0 in
  (match !open_spans with
  | _ :: (parent :: _ as rest) ->
      parent := !parent +. dur;
      open_spans := rest
  | _ -> open_spans := []);
  let a =
    match Hashtbl.find_opt profile name with
    | Some a -> a
    | None ->
        let a = { count = 0; total = 0.0; self = 0.0 } in
        Hashtbl.add profile name a;
        a
  in
  a.count <- a.count + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. children)

let span name f =
  if not !tracing then f ()
  else begin
    let children = ref 0.0 in
    open_spans := children :: !open_spans;
    let t0 = now () in
    match f () with
    | v ->
        record name t0 !children;
        v
    | exception e ->
        record name t0 !children;
        raise e
  end

let self_s name =
  match Hashtbl.find_opt profile name with Some a -> a.self | None -> 0.0

let total_s name =
  match Hashtbl.find_opt profile name with Some a -> a.total | None -> 0.0

(* Time covered by some span: self times telescope to the top-level
   spans' durations. *)
let covered_s () = Hashtbl.fold (fun _ a acc -> acc +. a.self) profile 0.0

let print_profile title =
  Printf.printf "trace profile (%s):\n  %-22s %9s %11s %11s\n" title "span"
    "count" "total_s" "self_s";
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) profile []
  |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)
  |> List.iter (fun (name, a) ->
         Printf.printf "  %-22s %9d %11.6f %11.6f\n" name a.count a.total
           a.self)

(* ------------------------------------------------------------------ *)
(* Sample statistics *)

(* Linear interpolation between closest ranks ([q] in [0, 1]). *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5
let median_l xs = median (Array.of_list xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Work counters: deltas of the library's own Metrics counters. *)

let counter snap name =
  Option.value (Metrics.Snapshot.counter snap name) ~default:0

let delta before after name = counter after name - counter before name

(* The seed whose rendered outputs are recorded as digests. *)
let default_seed = 7

(* Worker domains of every parallel stage: the machines this benchmark
   was built on have two cores. *)
let jobs = 2

(* Sum of a pool.* histogram on the calling domain (worker cells are
   absorbed into it at every join). *)
let hist_sum name = Metrics.Histogram.sum (Metrics.histogram name)

(* The pool figures of one untraced pass; [run] returns the wall time
   of the pass's parallel stage. *)
let pool_metrics run =
  let busy0 = hist_sum "pool.worker_busy_s"
  and idle0 = hist_sum "pool.worker_idle_s"
  and tasks0 = counter (Metrics.snapshot ()) "pool.tasks" in
  let stage_wall = run () in
  [
    ( "pool.busy_frac",
      (hist_sum "pool.worker_busy_s" -. busy0)
      /. (float_of_int jobs *. stage_wall),
      "frac" );
    ("pool.idle_s", hist_sum "pool.worker_idle_s" -. idle0, "s");
    ( "pool.tasks",
      float_of_int (counter (Metrics.snapshot ()) "pool.tasks" - tasks0),
      "count" );
  ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Set-up: per-topology state that serves every later operation. *)

module Isp = Rtr_topo.Isp
module Topo_cache = Rtr_sim.Topo_cache

type topo_state = {
  preset : Isp.preset;
  topo : Rtr_topo.Topology.t;
  table : Rtr_routing.Route_table.t;
  mrc : Rtr_baselines.Mrc.t option;
}

let build_state ~shared ~with_mrc (preset : Isp.preset) =
  let topo =
    span "topo.load" @@ fun () ->
    if shared then Isp.load preset
    else
      Rtr_topo.Generator.generate
        (Rtr_util.Rng.make preset.Isp.seed)
        ~name:preset.Isp.as_name ~n:preset.Isp.nodes ~m:preset.Isp.links
        ~style:preset.Isp.style ()
  in
  let table =
    span "route_table.compute" @@ fun () ->
    Topo_cache.table
      (if shared then Topo_cache.shared topo else Topo_cache.create topo)
  in
  let mrc =
    if with_mrc then
      Some
        ( span "mrc.build" @@ fun () ->
          Rtr_sim.Pipeline.mrc_for ~mrc_k:None (Rtr_topo.Topology.graph topo) )
    else None
  in
  { preset; topo; table; mrc }

(* One set-up of every preset, timed.  [shared] builds the process-wide
   memoised state the workloads use; otherwise the same state is built
   from scratch on a private cache. *)
let setup_once ~shared ~with_mrc presets =
  let t0 = now () in
  let states = List.map (build_state ~shared ~with_mrc) presets in
  (states, now () -. t0)

(* Called between passes; the untraced run uses it to repeat the set-up,
   so [setup_s] is a median over the whole run. *)
let between_passes = ref (fun () -> ())

(* The work counters every workload reports: phase 1, phase 2 and the
   graph layer beneath them. *)
let graph_counters before after =
  let c name = float_of_int (delta before after name) in
  [
    ("phase1.runs", c "phase1.runs", "count");
    ("phase1.hops_walked", c "phase1.hops_walked", "count");
    ("sweep.selects", c "sweep.selects", "count");
    ("phase2.creates", c "phase2.creates", "count");
    ("phase2.sp_calcs", c "phase2.sp_calcs", "count");
    ( "phase2.cache_hit_frac",
      ratio (c "phase2.cache_hits") (c "phase2.cache_hits" +. c "phase2.sp_calcs"),
      "frac" );
    ("pqueue.pop", c "pqueue.pop", "count");
    ("spt.from_scratch", c "spt.from_scratch", "count");
    ("spt.repairs", c "spt.repairs", "count");
    ("view.allocs", c "view.allocs", "count");
  ]

(* ------------------------------------------------------------------ *)
(* Pass loop: repeat a fixed unit of work, at least [min_passes] times,
   and then while another pass as long as the last one still fits in
   the run's time.  Each pass starts from a fully collected heap, so it
   pays for collecting its own garbage and not, depending on where the
   previous pass left the major cycle, for some of another pass's. *)

let min_passes = 3

(* The input seed of pass [k] of a run seeded [seed].  Pass 0 uses the
   run's seed itself; later passes draw fresh inputs, so a run's medians
   average over several draws instead of riding on one. *)
let pass_seed seed k = seed + (k * 100_003)

let repeat ~seconds pass =
  let t0 = now () in
  let rec go acc =
    Gc.full_major ();
    let p0 = now () in
    let acc = pass (List.length acc) :: acc in
    let last = now () -. p0 in
    if List.length acc >= min_passes && now () -. t0 +. last > seconds then
      List.rev acc
    else begin
      !between_passes ();
      go acc
    end
  in
  go []

(* The end-to-end figures of a run's passes, each given as (pass wall,
   operations per second, preparation-stage units per second, latency of
   every operation in us): printed per pass and reduced over passes.
   Latency percentiles are taken per pass too, so a stretch of host
   contention that slows some passes moves them no more than it moves
   the throughputs.  [slow_q] is where on each figure's slow side the
   reduction reads: 0.5 (the default) is the median pass; 0.9 is the
   pass slower than nine tenths of the others, the 90th percentile of
   times and the 10th of rates. *)
let pass_metrics ?(slow_q = 0.5) rows =
  let rows =
    List.map
      (fun (wall, ops, prep, lat) ->
        (wall, ops, prep, quantile lat 0.5, quantile lat 0.99))
      rows
  in
  List.iteri
    (fun i (wall, ops, prep, p50, p99) ->
      Printf.printf
        "  pass %d: pass_s %.4f  ops_per_s %.1f  prep_per_s %.1f  p50_us %.3f  \
         p99_us %.3f\n"
        (i + 1) wall ops prep p50 p99)
    rows;
  let time f = quantile (Array.of_list (List.map f rows)) slow_q
  and rate f = quantile (Array.of_list (List.map f rows)) (1.0 -. slow_q) in
  [
    ("pass_s", time (fun (w, _, _, _, _) -> w), "s");
    ("ops_per_s", rate (fun (_, o, _, _, _) -> o), "1/s");
    ("prep_per_s", rate (fun (_, _, p, _, _) -> p), "1/s");
    ("op_p50_us", time (fun (_, _, _, p50, _) -> p50), "us");
    ("op_p99_us", time (fun (_, _, _, _, p99) -> p99), "us");
  ]

(* Checks of a workload's passes, each given as (checked, failed, input
   seed, digest of the rendered output): the pass's own counts, plus, for
   a pass at the default seed, the digest against the one recorded in the
   benchmark. *)
let checks ~what ~expected passes =
  List.fold_left
    (fun (att, bad) (checked, failed, seed, digest) ->
      let att = att + checked and bad = bad + failed in
      if seed <> default_seed then (att, bad)
      else begin
        if digest <> expected then
          Printf.printf "%s digest %s, expected %s\n" what digest expected;
        (att + 1, if digest = expected then bad else bad + 1)
      end)
    (0, 0) passes

(* Scratch files of the on-disk pipeline live in the checkout. *)
let work_dir () =
  let dir = Filename.concat "rtrbench" "_work" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let file_bytes path = (Unix.stat path).Unix.st_size

let remove_work_dir () =
  let dir = Filename.concat "rtrbench" "_work" in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
