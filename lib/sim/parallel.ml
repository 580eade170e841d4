module Metrics = Rtr_obs.Metrics
module Trace = Rtr_obs.Trace
module Pool = Rtr_util.Pool

let env_jobs () =
  match Sys.getenv_opt "RTR_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None ->
          Printf.eprintf
            "warning: RTR_JOBS=%S is not a positive integer; using the \
             recommended domain count\n\
             %!"
            s;
          Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* The largest job count any pool run of this process actually used —
   what a run manifest should record as the effective parallelism.
   A call nested in a task notes from a helper domain, hence the
   atomic. *)
let noted = Atomic.make None

let rec note_jobs jobs =
  let seen = Atomic.get noted in
  let next = Some (max jobs (Option.value seen ~default:1)) in
  if not (Atomic.compare_and_set noted seen next) then note_jobs jobs

let noted_jobs () = Atomic.get noted

(* Registered on first parallel run, not at module initialisation: a
   sequential run must snapshot exactly the pre-pool set of metric
   names. *)
let handles =
  lazy
    ( Metrics.counter "pool.runs",
      Metrics.counter "pool.tasks",
      Metrics.counter "pool.helper_spawns",
      Metrics.gauge "pool.jobs",
      Metrics.histogram "pool.worker_tasks",
      Metrics.histogram "pool.worker_busy_s",
      Metrics.histogram "pool.worker_idle_s" )

(* Worker 0 is the calling domain: its cells are the ones the run
   absorbs into, so it neither snapshots nor absorbs.  A helper
   snapshots its cells at the end of its share of the run and zeroes
   them, even when a task raised, so nothing carries into the next run
   it serves.  [on_stats] only fires for a run that went parallel and
   completed; it runs on the caller once every helper has finished. *)
let obs_hooks ~jobs =
  let snaps = Array.make (max 1 jobs) Metrics.Snapshot.empty in
  let wrap w body =
    let shard () =
      Trace.with_ "pool.shard" ~attrs:[ ("worker", string_of_int w) ] body
    in
    if w = 0 then shard ()
    else
      Fun.protect shard ~finally:(fun () ->
          snaps.(w) <- Metrics.snapshot ();
          Metrics.reset ())
  in
  let on_stats stats =
    let c_runs, c_tasks, c_spawns, g_jobs, h_tasks, h_busy, h_idle =
      Lazy.force handles
    in
    Array.iter Metrics.absorb snaps;
    Metrics.Counter.incr c_runs;
    Metrics.Gauge.set_max g_jobs (float_of_int (List.length stats));
    List.iter
      (fun (s : Pool.worker_stats) ->
        Metrics.Counter.add c_tasks s.Pool.tasks;
        if s.Pool.spawned then Metrics.Counter.incr c_spawns;
        Metrics.Histogram.observe h_tasks (float_of_int s.Pool.tasks);
        Metrics.Histogram.observe h_busy s.Pool.busy_s;
        Metrics.Histogram.observe h_idle s.Pool.idle_s)
      stats
  in
  (wrap, on_stats)

let map ~jobs f input =
  note_jobs jobs;
  let wrap_worker, on_stats = obs_hooks ~jobs in
  Pool.map ~wrap_worker ~on_stats ~jobs f input

let stream ~jobs ?capacity f ~producer ~consumer () =
  note_jobs jobs;
  let wrap_worker, on_stats = obs_hooks ~jobs in
  Pool.stream ~wrap_worker ~on_stats ?capacity ~jobs f ~producer ~consumer ()
