(** A reusable pool of OCaml 5 domains with chunked work distribution.

    OCaml 5.1 ships multicore support but no task library in the stdlib, so
    this module provides the parallel substrate the reproduction executes
    lowered plans on: a fixed set of worker domains that repeatedly pick up
    jobs; each job drains a shared atomic chunk counter, giving dynamic load
    balancing without work stealing. *)

type t

exception Watchdog_timeout
(** Raised in the caller when a job's barrier wait exceeds the pool's
    watchdog budget; the pool is degraded (see {!degraded}) instead of
    left wedged. *)

val create : ?num_domains:int -> ?watchdog_s:float -> unit -> t
(** [num_domains] counts workers in addition to the caller; defaults to
    [Domain.recommended_domain_count () - 1], at least 0. [watchdog_s]
    bounds how long any single job may keep the caller at the barrier
    after the caller's own share is done (default: unbounded) — see
    {!run_job}. *)

val num_workers : t -> int
(** Total parallelism including the calling domain (>= 1). *)

val degraded : t -> bool
(** True once a watchdog expiry has flipped the pool to graceful
    degradation: every later job runs sequentially in the caller (the
    worker set may still be wedged behind a stuck job). Recorded on the
    registry as [runtime.pool.degraded]. *)

val run_job : t -> (unit -> unit) -> unit
(** Run one job on every domain of the pool at once (the caller included):
    the building block of the chunked primitives below, exposed for jobs
    that do their own work distribution (e.g. draining a shared atomic
    counter). Blocks until every domain has finished. If any domain's run
    of the job raises, the first exception is re-raised in the caller after
    the barrier — never swallowed — and the pool remains usable. Nested
    submission from inside a job raises [Invalid_argument].

    With a watchdog configured, a barrier wait longer than [watchdog_s]
    raises {!Watchdog_timeout} and permanently degrades the pool to
    sequential execution rather than hanging the run; work the stuck
    worker had claimed may be incomplete, so callers needing the job's
    effects must re-run it (sequentially, the pool now guarantees that). *)

val parallel_for : t -> ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** Apply the body to every index in [\[lo, hi)], distributing chunks of
    [grain] (default: range / (8 x workers), at least 1) across the pool.
    The body must be safe to run concurrently on distinct indices.
    Exceptions in the body are re-raised in the caller (first one wins).
    Nested parallel submission from inside a body is detected and raises
    [Invalid_argument] (it would deadlock the fixed worker set). *)

val parallel_reduce :
  t -> ?grain:int -> lo:int -> hi:int -> chunk:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) -> 'a -> 'a
(** Chunked reduction: [chunk start stop] reduces the non-empty index
    range [\[start, stop)] in one loop of its own (one monomorphic loop,
    so a float accumulator stays unboxed until the chunk returns); the
    chunk partials are then combined in index order, starting from the
    seed — so an associative (not necessarily commutative) [combine]
    gives the sequential result. Chunks hold [grain] indices (default as
    in {!parallel_for}). *)

val scan_inclusive : t -> ('a -> 'a -> 'a) -> 'a array -> 'a array
(** Two-phase parallel inclusive prefix scan (associative operator):
    per-block scans, a sequential block-total scan, then a parallel carry
    pass. *)

val run_in_parallel : t -> (unit -> 'a) array -> 'a array
(** Execute independent thunks across the pool, returning their results in
    order. *)

type stats = {
  workers : int;        (** total parallelism, caller included *)
  jobs_run : int;       (** jobs submitted through {!run_job} *)
  busy_s : float array; (** seconds spent executing jobs: slot 0 is the
                            caller's share, slot [i+1] worker [i] *)
  wall_s : float;       (** seconds since the pool was created *)
  utilization : float;  (** worker busy time / (wall x worker domains);
                            0 for a pool with no worker domains *)
}

val stats : t -> stats
(** Instantaneous observability snapshot; cheap and safe while jobs run. *)

val publish_metrics : t -> unit
(** Push the pool's utilization onto the [Mdh_obs.Metrics] registry
    ([runtime.pool.jobs], [runtime.pool.busy_s], [runtime.pool.capacity_s],
    [runtime.pool.utilization], [runtime.pool.workers]) without waiting
    for {!shutdown}: a long-running process can be scraped mid-flight.
    Publishes only the delta since the previous call on this pool, so
    repeated snapshots (and the final one at shutdown) never double-count.
    Safe to call concurrently and while jobs are running. *)

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards.
    Idempotent. Publishes the pool's lifetime totals onto the
    [Mdh_obs.Metrics] registry ([runtime.pool.jobs], [runtime.pool.busy_s],
    [runtime.pool.capacity_s], [runtime.pool.utilization],
    [runtime.pool.workers]), accumulating across pools. Blocks on a
    degraded pool until its stuck worker finishes its current job. *)

val with_pool : ?num_domains:int -> ?watchdog_s:float -> (t -> 'a) -> 'a
(** Create, run, and always shut down. *)
