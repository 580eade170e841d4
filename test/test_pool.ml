module Pool = Rtr_util.Pool

(* Adversarial durations: early tasks sleep longest, so with several
   workers the late tasks finish first — results must still come back
   by submission index. *)
let test_order_under_skew () =
  let n = 12 in
  let input = Array.init n (fun i -> i) in
  let f i =
    if i < 3 then Unix.sleepf (0.02 *. float_of_int (3 - i));
    i * i
  in
  let out = Pool.map ~jobs:4 f input in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
    out

let test_exception_propagates_and_pool_survives () =
  let input = Array.init 32 (fun i -> i) in
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      ignore (Pool.map ~jobs:4 (fun i -> if i = 13 then failwith "boom" else i) input));
  (* Every worker finished after the failure; a fresh run on the same
     inputs works — the pool never wedges. *)
  let out = Pool.map ~jobs:4 (fun i -> i + 1) input in
  Alcotest.(check int) "subsequent run ok" 32 out.(31)

(* jobs=1 degenerates to in-line execution: same domain, sequential
   order, no hook invocations. *)
let test_jobs1_inline () =
  let self = Domain.self () in
  let order = ref [] in
  let wrapped = ref false in
  let out =
    Pool.map ~jobs:1
      ~wrap_worker:(fun _ body ->
        wrapped := true;
        body ())
      ~on_stats:(fun _ -> wrapped := true)
      (fun i ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        order := i :: !order;
        i)
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check (list int)) "sequential order" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !order);
  Alcotest.(check int) "results" 7 out.(7);
  Alcotest.(check bool) "hooks not invoked" false !wrapped

let test_stats_cover_all_tasks () =
  let n = 23 in
  let total = ref 0 in
  let workers = ref 0 in
  let out =
    Pool.map ~jobs:4
      ~on_stats:(fun stats ->
        workers := List.length stats;
        List.iter (fun (s : Pool.worker_stats) -> total := !total + s.Pool.tasks) stats)
      (fun i -> i)
      (Array.init n (fun i -> i))
  in
  Alcotest.(check int) "all tasks counted" n !total;
  Alcotest.(check int) "one stats record per worker" 4 !workers;
  Alcotest.(check int) "results intact" (n - 1) out.(n - 1)

let test_wrap_worker_runs_in_worker () =
  let self = Domain.self () in
  let saw_other = Atomic.make false in
  let _ =
    Pool.map ~jobs:2
      ~wrap_worker:(fun _ body ->
        if Domain.self () <> self then Atomic.set saw_other true;
        body ())
      (fun i -> i)
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check bool) "wrap ran on a helper domain" true
    (Atomic.get saw_other)

(* --- the bounded streaming seam -------------------------------------- *)

(* Same adversarial skew as the map test: early tasks finish last, yet
   the consumer must see results in submission order. *)
let test_stream_order_under_skew () =
  let n = 12 in
  let produced = ref 0 in
  let producer () =
    if !produced >= n then None
    else begin
      let i = !produced in
      incr produced;
      Some i
    end
  in
  let f i =
    if i < 3 then Unix.sleepf (0.02 *. float_of_int (3 - i));
    i * i
  in
  let seen = ref [] in
  let consumer seq v =
    Alcotest.(check int) (Printf.sprintf "slot %d" seq) (seq * seq) v;
    seen := seq :: !seen
  in
  let total = Pool.stream ~jobs:4 f ~producer ~consumer () in
  Alcotest.(check int) "all consumed" n total;
  Alcotest.(check (list int)) "strict submission order"
    (List.init n (fun i -> i))
    (List.rev !seen)

(* Backpressure: with a slow head-of-line task and [capacity] in-flight
   slots, the coordinator must stop producing once the window is full —
   the producer never runs more than [capacity] ahead of the consumer. *)
let test_stream_backpressure () =
  let n = 40 and capacity = 3 in
  let produced = ref 0 and consumed = ref 0 and max_window = ref 0 in
  let producer () =
    max_window := max !max_window (!produced - !consumed);
    if !produced >= n then None
    else begin
      let i = !produced in
      incr produced;
      Some i
    end
  in
  let f i =
    if i = 0 then Unix.sleepf 0.05;
    i
  in
  let consumer _seq _v = incr consumed in
  let total = Pool.stream ~jobs:3 ~capacity f ~producer ~consumer () in
  Alcotest.(check int) "all consumed" n total;
  Alcotest.(check bool)
    (Printf.sprintf "window bounded by capacity (saw %d)" !max_window)
    true
    (!max_window <= capacity)

let test_stream_exception_propagates () =
  let produced = ref 0 in
  let producer () =
    if !produced >= 32 then None
    else begin
      let i = !produced in
      incr produced;
      Some i
    end
  in
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.stream ~jobs:4
           (fun i -> if i = 13 then failwith "boom" else i)
           ~producer
           ~consumer:(fun _ _ -> ())
           ()));
  (* Every worker finished after the failure; a fresh stream on the
     same inputs works. *)
  let produced = ref 0 in
  let producer () =
    if !produced >= 8 then None
    else begin
      incr produced;
      Some !produced
    end
  in
  let total = Pool.stream ~jobs:4 (fun i -> i) ~producer ~consumer:(fun _ _ -> ()) () in
  Alcotest.(check int) "subsequent stream ok" 8 total

(* jobs=1 degenerates to the in-line produce/apply/consume loop: same
   domain, strictly alternating, no hook invocations — and an empty
   producer consumes nothing. *)
let test_stream_jobs1_inline () =
  let self = Domain.self () in
  let events = ref [] in
  let wrapped = ref false in
  let produced = ref 0 in
  let producer () =
    if !produced >= 3 then None
    else begin
      let i = !produced in
      incr produced;
      events := Printf.sprintf "P%d" i :: !events;
      Some i
    end
  in
  let total =
    Pool.stream ~jobs:1
      ~wrap_worker:(fun _ body ->
        wrapped := true;
        body ())
      ~on_stats:(fun _ -> wrapped := true)
      (fun i ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        events := Printf.sprintf "A%d" i :: !events;
        i)
      ~producer
      ~consumer:(fun seq _ -> events := Printf.sprintf "C%d" seq :: !events)
      ()
  in
  Alcotest.(check int) "consumed" 3 total;
  Alcotest.(check (list string)) "strict alternation"
    [ "P0"; "A0"; "C0"; "P1"; "A1"; "C1"; "P2"; "A2"; "C2" ]
    (List.rev !events);
  Alcotest.(check bool) "hooks not invoked" false !wrapped;
  let empty =
    Pool.stream ~jobs:1
      (fun i -> i)
      ~producer:(fun () -> None)
      ~consumer:(fun _ _ -> Alcotest.fail "consumed from empty stream")
      ()
  in
  Alcotest.(check int) "empty stream" 0 empty

(* --- the long-lived helpers ------------------------------------------ *)

(* The helper domains of one map, with their [spawned] flags. *)
let helper_run ?(jobs = 2) () =
  let m = Mutex.create () in
  let seen = ref [] and fresh = ref [] in
  let out =
    Pool.map ~jobs
      ~wrap_worker:(fun w body ->
        if w > 0 then Mutex.protect m (fun () -> seen := Domain.self () :: !seen);
        body ())
      ~on_stats:(fun stats ->
        List.iter
          (fun (s : Pool.worker_stats) ->
            if s.Pool.worker > 0 then fresh := s.Pool.spawned :: !fresh)
          stats)
      (fun i -> i + 1)
      (Array.init 16 Fun.id)
  in
  Alcotest.(check int) "results" 16 out.(15);
  (!seen, !fresh)

let test_back_to_back_reuse () =
  let first, _ = helper_run () in
  let second, fresh = helper_run () in
  Alcotest.(check int) "one helper per run" 1 (List.length second);
  Alcotest.(check bool) "same helper domain" true (first = second);
  Alcotest.(check (list bool)) "second run spawned nothing" [ false ] fresh

let test_nested_inline () =
  let moved = Atomic.make false and free = Atomic.make false in
  let out =
    Pool.map ~jobs:2
      (fun i ->
        if not (Pool.busy ()) then Atomic.set free true;
        let outer = Domain.self () in
        Pool.map ~jobs:2
          (fun j ->
            if Domain.self () <> outer then Atomic.set moved true;
            i * j)
          (Array.init 5 Fun.id)
        |> Array.fold_left ( + ) 0)
      (Array.init 6 Fun.id)
  in
  Alcotest.(check bool) "nested tasks stay on their caller's domain" false
    (Atomic.get moved);
  Alcotest.(check bool) "pool busy inside every task" false (Atomic.get free);
  Alcotest.(check bool) "pool free after the run" false (Pool.busy ());
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * 10) v)
    out

(* While the main domain's run holds the pool, a map started on another
   domain runs inline there and completes. *)
let test_second_domain_while_busy () =
  let inner () =
    let self = Domain.self () in
    Pool.map ~jobs:2
      (fun x ->
        if Domain.self () <> self then failwith "left its domain";
        x + 1)
      (Array.init 100 Fun.id)
    |> Array.fold_left ( + ) 0
  in
  let out =
    Pool.map ~jobs:2
      (fun i -> if i = 0 then Domain.join (Domain.spawn inner) else i)
      (Array.init 8 Fun.id)
  in
  Alcotest.(check int) "second domain's map" 5050 out.(0);
  Alcotest.(check int) "outer results" 7 out.(7)

(* A helper parked for longer than the idle period retires, so the next
   run has to spawn every helper anew.  A loaded host can wake a helper
   late; the wait doubles until every helper has gone. *)
let test_helpers_retire () =
  ignore (helper_run ~jobs:3 ());
  let rec after_idle pause =
    Unix.sleepf pause;
    let _, fresh = helper_run ~jobs:3 () in
    if List.for_all Fun.id fresh || pause > 1.0 then fresh
    else after_idle (2.0 *. pause)
  in
  Alcotest.(check (list bool)) "every helper spawned anew" [ true; true ]
    (after_idle (2.0 *. Pool.idle_period))

(* Two minor collections retire a parked helper well inside the idle
   period.  An attempt counts only when the helper was parked for less
   than [idle_period], so the time limit cannot explain the retirement;
   a loaded host that wakes the helper late gets a few more attempts. *)
let test_collections_retire_helper () =
  let rec attempt k =
    let t0 = Unix.gettimeofday () in
    ignore (helper_run ());
    Gc.minor ();
    Gc.minor ();
    Unix.sleepf (Pool.idle_period /. 5.0);
    let quick = Unix.gettimeofday () -. t0 < Pool.idle_period in
    let _, fresh = helper_run () in
    if quick && fresh = [ true ] then true
    else if k = 0 then false
    else attempt (k - 1)
  in
  Alcotest.(check bool) "helper spawned anew" true (attempt 5)

(* The coordinator runs pending tasks while the next in-order result is
   not ready; with early tasks slowest, it ends up evaluating later ones
   ahead of the head of line, and the consumer must still see strict
   submission order. *)
let test_stream_coordinator_runs_tasks () =
  let n = 16 in
  let produced = ref 0 in
  let producer () =
    if !produced >= n then None
    else begin
      let i = !produced in
      incr produced;
      Some i
    end
  in
  let f i =
    if i < 3 then Unix.sleepf (0.02 *. float_of_int (3 - i));
    i * i
  in
  let seen = ref [] and caller_tasks = ref 0 in
  let total =
    Pool.stream ~jobs:2
      ~on_stats:(fun stats ->
        List.iter
          (fun (s : Pool.worker_stats) ->
            if s.Pool.worker = 0 then caller_tasks := s.Pool.tasks)
          stats)
      f ~producer
      ~consumer:(fun seq v ->
        Alcotest.(check int) (Printf.sprintf "slot %d" seq) (seq * seq) v;
        seen := seq :: !seen)
      ()
  in
  Alcotest.(check int) "all consumed" n total;
  Alcotest.(check (list int)) "strict submission order"
    (List.init n Fun.id) (List.rev !seen);
  Alcotest.(check bool) "the coordinator evaluated tasks" true
    (!caller_tasks > 0)

(* A helper zeroes its metric cells after every run, a failed one too:
   a clean run right after a failed one (on the same helper) absorbs
   exactly what the clean run counted, which is the jobs=1 total. *)
let test_parallel_failed_run_leaks_nothing () =
  let module Metrics = Rtr_obs.Metrics in
  let c = Metrics.counter "test.pool_leak" in
  let input = Array.init 32 Fun.id in
  let count ~fail_at i =
    if i = 0 then Unix.sleepf 0.02;
    Metrics.Counter.add c (i + 1);
    if i = fail_at then failwith "boom"
  in
  let delta jobs f =
    let before = Metrics.Counter.value c in
    ignore (Rtr_sim.Parallel.map ~jobs f input);
    Metrics.Counter.value c - before
  in
  let sequential = delta 1 (count ~fail_at:(-1)) in
  Alcotest.check_raises "failed run raises" (Failure "boom") (fun () ->
      ignore (Rtr_sim.Parallel.map ~jobs:2 (count ~fail_at:31) input));
  Alcotest.(check int) "clean run after a failed one" sequential
    (delta 2 (count ~fail_at:(-1)))

let suite =
  [
    Alcotest.test_case "back-to-back maps reuse the helper" `Quick
      test_back_to_back_reuse;
    Alcotest.test_case "nested map runs inline" `Quick test_nested_inline;
    Alcotest.test_case "map from a second domain while busy" `Quick
      test_second_domain_while_busy;
    Alcotest.test_case "idle helpers retire" `Quick test_helpers_retire;
    Alcotest.test_case "minor collections retire a parked helper" `Quick
      test_collections_retire_helper;
    Alcotest.test_case "stream coordinator runs tasks in order" `Quick
      test_stream_coordinator_runs_tasks;
    Alcotest.test_case "failed parallel run leaks no metrics" `Quick
      test_parallel_failed_run_leaks_nothing;
    Alcotest.test_case "submission order under skewed durations" `Quick
      test_order_under_skew;
    Alcotest.test_case "stream order under skewed durations" `Quick
      test_stream_order_under_skew;
    Alcotest.test_case "stream backpressure bounds the window" `Quick
      test_stream_backpressure;
    Alcotest.test_case "stream exception propagates" `Quick
      test_stream_exception_propagates;
    Alcotest.test_case "stream jobs=1 runs inline" `Quick
      test_stream_jobs1_inline;
    Alcotest.test_case "exception propagates, pool survives" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_inline;
    Alcotest.test_case "stats cover all tasks" `Quick
      test_stats_cover_all_tasks;
    Alcotest.test_case "wrap_worker runs in worker domain" `Quick
      test_wrap_worker_runs_in_worker;
  ]
