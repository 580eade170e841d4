(** Deterministic fork-join work pool over OCaml 5 domains.

    [map ~jobs f input] evaluates [f] on every element of [input] and
    returns the results {e in submission order} — [output.(i)] is
    always [f input.(i)] no matter which domain evaluated it or when it
    finished — so a parallel run is observationally a [Array.map] as
    long as [f] itself is deterministic and the tasks are independent.
    Scheduling is dynamic (workers pull the next unclaimed index), so
    per-worker shard composition varies run to run; only the reassembly
    is guaranteed stable.

    A run with [jobs = N] has N workers.  Worker 0 is the calling
    domain, which evaluates tasks like the others; workers 1 .. N-1 are
    helper domains.  Helpers outlive a run: one set of them serves every
    [map] and [stream] of the process, parked between runs, so
    back-to-back runs reuse the same domains.  A helper that stays
    parked for [idle_period], or through two minor collections, retires,
    so a long sequential stage runs with no idle domain around (every
    minor collection waits for each parked domain).

    One run holds the pool at a time.  A call made while the pool is
    held — from inside a task (nested), or from another domain while a
    run is in progress — runs inline on its calling domain, like
    [jobs = 1].

    The pool is hand-rolled on stdlib [Domain]/[Mutex]/[Atomic] and
    [Unix] machinery only — no external dependencies. *)

type worker_stats = {
  worker : int;  (** 0-based worker index; 0 is the calling domain *)
  tasks : int;  (** tasks this worker evaluated *)
  busy_s : float;  (** wall time spent inside [f] *)
  idle_s : float;  (** wall time spent waiting or coordinating *)
  spawned : bool;
      (** this run started a new helper domain for the worker rather
          than reusing a parked one; always [false] for worker 0 *)
}

val idle_period : float
(** Seconds a parked helper waits for its next run before it retires;
    it retires sooner once two minor collections have passed. *)

val busy : unit -> bool
(** A run holds the pool: a [map] or [stream] called now, from this
    domain or another, would run inline. *)

val map :
  ?wrap_worker:(int -> (unit -> unit) -> unit) ->
  ?on_stats:(worker_stats list -> unit) ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~jobs f input] with [jobs <= 1] (or fewer than two tasks), or
    while the pool is held by another run, degenerates to in-line
    sequential execution on the calling domain: no helper is involved
    and neither hook is invoked, so the degenerate case is bit-for-bit
    the pre-pool code path.

    Otherwise [min jobs (Array.length input)] workers run: the caller
    and that many minus one helpers.  [wrap_worker w body] runs
    {e inside} worker [w]'s domain around its whole task loop and must
    call [body] exactly once — the seam where callers install
    per-worker setup/teardown (metrics snapshots, trace spans); for
    [w = 0] that domain is the caller's.  [on_stats] receives one
    record per worker, on the calling domain, once every worker has
    finished.

    If any [f] application raises, the remaining tasks are abandoned,
    every worker finishes (the pool never wedges), and the first
    captured exception is re-raised — with its backtrace — in the
    calling domain.  [f] must be safe to run concurrently with
    itself. *)

val stream :
  ?wrap_worker:(int -> (unit -> unit) -> unit) ->
  ?on_stats:(worker_stats list -> unit) ->
  ?capacity:int ->
  jobs:int ->
  ('a -> 'b) ->
  producer:(unit -> 'a option) ->
  consumer:(int -> 'b -> unit) ->
  unit ->
  int
(** [stream ~jobs f ~producer ~consumer ()] is the bounded-queue
    submission seam: tasks are pulled one at a time from [producer]
    (until it returns [None]), evaluated by [f] on the workers, and
    handed to [consumer seq result] in {e strict submission order}
    ([seq] counts 0, 1, 2, ...).  Returns the number of tasks consumed.

    At most [capacity] tasks (default [4 * jobs], never below [jobs])
    are in flight between [producer] and [consumer]: when the window is
    full the coordinator stops producing until the next in-order result
    has been consumed — backpressure, so a stream larger than memory is
    never materialised.  The coordinator is worker 0, the calling
    domain: while the next in-order result is not ready it evaluates a
    pending task itself.  [producer] and [consumer] both run on the
    calling domain and need no synchronisation of their own; ordering
    makes a parallel stream observationally the sequential loop.

    With [jobs <= 1], or while the pool is held by another run, this
    degenerates to an in-line produce/apply/consume loop on the calling
    domain: no helpers, no hooks — bit-for-bit the sequential code
    path, mirroring [map].

    Failure semantics match [map]: the first exception from [f] (or
    from [producer]/[consumer]) abandons the remaining work, every
    worker finishes, and the exception is re-raised with its
    backtrace.  [wrap_worker] and [on_stats] are the same seams as in
    [map]; worker 0's [wrap_worker] also covers the producer and
    consumer calls. *)
