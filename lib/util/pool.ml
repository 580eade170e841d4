type worker_stats = {
  worker : int;
  tasks : int;
  busy_s : float;
  idle_s : float;
  spawned : bool;
}

let idle_period = 0.05

(* A parked helper also retires once this many minor collections have
   passed since it parked, checking every [poll_period]: each one waits
   for the parked domain to answer (~0.1 ms on a 2-vCPU host), so a
   sequential stage that allocates, such as drawing a flow demand
   matrix right after a parallel stage, would otherwise run ~10% slower
   for the whole [idle_period].  Stages that allocate little between
   runs keep their helper. *)
let idle_collections = 2
let poll_period = 0.002

(* --- helper domains ---------------------------------------------------

   One set of helper domains serves every run of the process.  Between
   runs a helper parks in [Unix.select] on its own pipe; a run hands it
   a task by setting [task] and writing one byte, both under [lock], so
   a helper that wakes (byte or timeout) and finds [task] set always
   has exactly one byte to drain.  A helper that times out with no task
   leaves [parked] and returns: an idle helper does not outlive
   [idle_period], nor [idle_collections] minor collections, so long
   sequential stages run with no parked domain that every minor
   collection would have to synchronise with.

   [lock] guards [parked], [outstanding] and every helper's [task].
   At most one run holds the pool at a time ([held]); it alone assigns
   tasks and waits on [finished]. *)

type helper = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  mutable task : (unit -> unit) option;
}

let lock = Mutex.create ()
let finished = Condition.create ()
let parked : helper list ref = ref []
let outstanding = ref 0
let held = Atomic.make false
let busy () = Atomic.get held

(* Counted across all domains. *)
let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* Returns when [h.rd] is readable or the helper should retire. *)
let select_idle h =
  let t0 = Unix.gettimeofday () and c0 = minor_collections () in
  let rec wait () =
    match Unix.select [ h.rd ] [] [] poll_period with
    | _ :: _, _, _ -> ()
    | [], _, _ ->
        if
          Unix.gettimeofday () -. t0 < idle_period
          && minor_collections () - c0 < idle_collections
        then wait ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* The next task handed to [h], or [None] once it has retired. *)
let await h =
  select_idle h;
  Mutex.lock lock;
  match h.task with
  | Some t ->
      h.task <- None;
      ignore (Unix.read h.rd (Bytes.create 1) 0 1);
      Mutex.unlock lock;
      Some t
  | None ->
      parked := List.filter (fun x -> x != h) !parked;
      Mutex.unlock lock;
      Unix.close h.rd;
      Unix.close h.wr;
      None

(* Tasks capture their own failures, so [task ()] returns normally.  The
   helper parks again before it reports the task done: a run that starts
   right after this one finds it in [parked]. *)
let rec serve h task =
  task ();
  Mutex.lock lock;
  parked := h :: !parked;
  decr outstanding;
  if !outstanding = 0 then Condition.signal finished;
  Mutex.unlock lock;
  match await h with Some task -> serve h task | None -> ()

(* Under [lock]. *)
let assign h task =
  h.task <- Some task;
  ignore (Unix.write_substring h.wr "!" 0 1)

(* A fresh helper whose first task is [task]; [false] when no domain
   could be started, in which case the task never runs. *)
let spawn task =
  let started =
    match Unix.pipe ~cloexec:true () with
    | exception Unix.Unix_error _ -> false
    | rd, wr -> (
        let h = { rd; wr; task = None } in
        match Domain.spawn (fun () -> serve h task) with
        | _ -> true
        | exception _ ->
            Unix.close rd;
            Unix.close wr;
            false)
  in
  if not started then Mutex.protect lock (fun () -> decr outstanding);
  started

(* [run ~workers body] evaluates [body w] for [w = 0 .. workers - 1]:
   worker 0 on the calling domain, the others on helpers, parked ones
   first.  It returns once every worker has finished, with [spawned.(w)]
   telling whether worker [w] needed a new domain and [started.(w)]
   whether it ran at all.  [body] must not raise.  The caller holds the
   pool. *)
let run ~workers body =
  let spawned = Array.make workers false in
  Mutex.lock lock;
  for w = 1 to workers - 1 do
    match !parked with
    | h :: rest ->
        parked := rest;
        assign h (fun () -> body w)
    | [] -> spawned.(w) <- true
  done;
  outstanding := workers - 1;
  Mutex.unlock lock;
  let started =
    Array.mapi (fun w fresh -> (not fresh) || spawn (fun () -> body w)) spawned
  in
  body 0;
  Mutex.lock lock;
  while !outstanding > 0 do
    Condition.wait finished lock
  done;
  Mutex.unlock lock;
  (spawned, started)

(* Run [parallel] holding the pool, or [inline] when another run holds
   it: a call from inside a task, on any worker, or from a second
   domain while the pool is busy. *)
let with_pool ~inline parallel =
  if Atomic.compare_and_set held false true then
    Fun.protect ~finally:(fun () -> Atomic.set held false) parallel
  else inline ()

(* Per-worker bookkeeping shared by [map] and [stream]. *)
type tally = { mutable n : int; mutable busy : float; mutable wall : float }

let timed tally f x =
  let t0 = Unix.gettimeofday () in
  match f x with
  | v ->
      tally.busy <- tally.busy +. (Unix.gettimeofday () -. t0);
      tally.n <- tally.n + 1;
      Ok v
  | exception e ->
      tally.busy <- tally.busy +. (Unix.gettimeofday () -. t0);
      Error (e, Printexc.get_raw_backtrace ())

(* Run [loop] as worker [w] under the caller's [wrap_worker], timing
   it; anything escaping (only the caller's hook can raise) goes to
   [fail]. *)
let worker_body ?wrap_worker ~fail tallies w loop =
  let t_start = Unix.gettimeofday () in
  (try
     match wrap_worker with
     | None -> loop ()
     | Some wrap -> wrap w loop
   with e -> fail e (Printexc.get_raw_backtrace ()));
  tallies.(w).wall <- Unix.gettimeofday () -. t_start

let report on_stats tallies (spawned, started) =
  Option.iter
    (fun cb ->
      List.init (Array.length tallies) Fun.id
      |> List.filter (fun w -> started.(w))
      |> List.map (fun w ->
             let t = tallies.(w) in
             {
               worker = w;
               tasks = t.n;
               busy_s = t.busy;
               idle_s = Float.max 0.0 (t.wall -. t.busy);
               spawned = spawned.(w);
             })
      |> cb)
    on_stats

(* --- map ----------------------------------------------------------- *)

(* Workers pull the next unclaimed index from a shared cursor and write
   the result into its submission slot, so reassembly order never
   depends on scheduling.  A failure parks the first exception in
   [failed]; the other workers notice the flag before claiming another
   task and drain out, and the caller re-raises once every worker has
   finished. *)
let map_run ?wrap_worker ?on_stats ~jobs f input =
  let n = Array.length input in
  let jobs = min jobs n in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let fail e bt = ignore (Atomic.compare_and_set failed None (Some (e, bt))) in
  let tallies = Array.init jobs (fun _ -> { n = 0; busy = 0.0; wall = 0.0 }) in
  let task_loop w () =
    let rec loop () =
      if Atomic.get failed = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match timed tallies.(w) f input.(i) with
          | Ok v -> results.(i) <- Some v
          | Error (e, bt) -> fail e bt);
          loop ()
        end
      end
    in
    loop ()
  in
  let ran =
    run ~workers:jobs (fun w ->
        worker_body ?wrap_worker ~fail tallies w (task_loop w))
  in
  (match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  report on_stats tallies ran;
  Array.map (function Some v -> v | None -> assert false) results

let map ?wrap_worker ?on_stats ~jobs f input =
  let inline () = Array.map f input in
  if jobs <= 1 || Array.length input <= 1 then inline ()
  else with_pool ~inline (fun () -> map_run ?wrap_worker ?on_stats ~jobs f input)

(* --- stream -------------------------------------------------------- *)

(* The coordinator (worker 0) pulls tasks from [producer] and hands
   finished results to [consumer] in strict submission order; at most
   [capacity] tasks are in flight, so an unbounded stream never
   materialises.  One mutex guards a pending queue (helpers wait on
   [can_take]) and a reorder ring indexed [seq mod capacity].  When the
   window is full and the next in-order result is not ready, the
   coordinator evaluates a pending task itself, and only waits on
   [can_consume] once none is left.  The ring never wraps onto a live
   slot: in-flight seqs span less than [capacity], so their slots are
   distinct. *)
let stream_run ?wrap_worker ?on_stats ~capacity ~jobs f ~producer ~consumer =
  let m = Mutex.create () in
  let can_take = Condition.create () in
  let can_consume = Condition.create () in
  let pending = Queue.create () in
  let ring = Array.make capacity None in
  let closed = ref false in
  let failed = ref None in
  let tallies = Array.init jobs (fun _ -> { n = 0; busy = 0.0; wall = 0.0 }) in
  let park e bt =
    (* under [m] *)
    if !failed = None then failed := Some (e, bt);
    Condition.broadcast can_take;
    Condition.signal can_consume
  in
  let fail e bt = Mutex.protect m (fun () -> park e bt) in
  let close () =
    Mutex.protect m (fun () ->
        closed := true;
        Condition.broadcast can_take)
  in
  let eval w (seq, x) =
    let r = timed tallies.(w) f x in
    Mutex.lock m;
    (match r with
    | Ok v ->
        ring.(seq mod capacity) <- Some v;
        Condition.signal can_consume
    | Error (e, bt) -> park e bt);
    Mutex.unlock m
  in
  let helper_loop w () =
    let rec loop () =
      Mutex.lock m;
      while Queue.is_empty pending && (not !closed) && !failed = None do
        Condition.wait can_take m
      done;
      if !failed <> None || Queue.is_empty pending then Mutex.unlock m
      else begin
        let job = Queue.pop pending in
        Mutex.unlock m;
        eval w job;
        loop ()
      end
    in
    loop ()
  in
  let submitted = ref 0 and consumed = ref 0 in
  (* The next in-order result, evaluating pending tasks while it is not
     ready; [None] once the stream has failed.  Called under [m],
     returns with it released. *)
  let rec next_result slot =
    match ring.(slot) with
    | Some v ->
        ring.(slot) <- None;
        Mutex.unlock m;
        Some v
    | None when !failed <> None ->
        Mutex.unlock m;
        None
    | None when not (Queue.is_empty pending) ->
        let job = Queue.pop pending in
        Mutex.unlock m;
        eval 0 job;
        Mutex.lock m;
        next_result slot
    | None ->
        Condition.wait can_consume m;
        next_result slot
  in
  (* The coordinator produces while there is room in the window, and
     otherwise consumes the next in-order result.  Producer and consumer
     both run here, in the calling domain. *)
  let pump () =
    while !failed = None && not (!closed && !consumed = !submitted) do
      if (not !closed) && !submitted - !consumed < capacity then begin
        match producer () with
        | None -> close ()
        | Some x ->
            Mutex.lock m;
            Queue.add (!submitted, x) pending;
            incr submitted;
            Condition.signal can_take;
            Mutex.unlock m
      end
      else begin
        Mutex.lock m;
        match next_result (!consumed mod capacity) with
        | Some v ->
            consumer !consumed v;
            incr consumed
        | None -> () (* failed: the while condition exits *)
      end
    done
  in
  let body w =
    if w > 0 then worker_body ?wrap_worker ~fail tallies w (helper_loop w)
    else begin
      (* A raising producer or consumer fails the stream like a task;
         either way the helpers are released before [run] waits. *)
      worker_body ?wrap_worker ~fail tallies 0 pump;
      close ()
    end
  in
  let ran = run ~workers:jobs body in
  (match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  report on_stats tallies ran;
  !consumed

let stream ?wrap_worker ?on_stats ?capacity ~jobs f ~producer ~consumer () =
  let inline () =
    let rec go seq =
      match producer () with
      | None -> seq
      | Some x ->
          consumer seq (f x);
          go (seq + 1)
    in
    go 0
  in
  if jobs <= 1 then inline ()
  else
    let capacity =
      max jobs (match capacity with Some c -> c | None -> 4 * jobs)
    in
    with_pool ~inline (fun () ->
        stream_run ?wrap_worker ?on_stats ~capacity ~jobs f ~producer ~consumer)
