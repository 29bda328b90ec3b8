(** Fork–join parallel execution over OCaml 5 domains.

    This is the PRAM stand-in used by the repository: the paper's algorithms
    are analysed on an algebraic PRAM; here three coarse fan-outs of the
    concrete implementations execute on a fixed pool of worker domains —
    the row blocks of a dense matrix product ([Dense.Make.mul_parallel]),
    a session batch's right-hand sides, and the columns of an inverse
    built from n solves.  The last nests the first (each column's solve
    fans its products out on the same pool), which is why regions are
    re-entrant.

    A pool owns [domains - 1] worker domains; the calling domain participates
    in every parallel region, so [create ~domains:1] degenerates to purely
    sequential execution with no synchronisation overhead on the hot path.

    Telemetry: every pool records into the {!Kp_obs} counters
    [pool.tasks.worker] (chunks executed on worker domains),
    [pool.tasks.helper] (chunks drained by a region's caller while waiting),
    [pool.regions] (parallel regions entered) and [pool.region_wait_ns]
    (time callers spent blocked on region completion). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns a pool using [domains] total execution streams
    (the caller plus [domains - 1] workers). [domains] is clamped to
    [1 .. 64]. *)

val shutdown : t -> unit
(** Terminate the worker domains. The pool must not be used afterwards.
    Idempotent. *)

val size : t -> int
(** Number of execution streams (including the caller). *)

val region_run : t -> (unit -> unit) list -> unit
(** [region_run pool thunks] executes the thunks as one fork–join region:
    all but the first are enqueued for the workers, the caller runs the
    first and then helps drain the queue until the region completes.  The
    first exception raised by any thunk is re-raised in the caller after
    every thunk has finished; the pool remains usable.  Re-entrant: a thunk
    may itself open a region on the same pool. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for [lo <= i < hi], splitting
    the range into chunks executed concurrently. [f] must be safe to run
    concurrently on distinct indices. Exceptions raised by [f] are re-raised
    in the caller after the region completes. *)

val parallel_for_chunked :
  t -> lo:int -> hi:int -> chunk:int -> (int -> int -> unit) -> unit
(** [parallel_for_chunked pool ~lo ~hi ~chunk f] calls [f cl ch] on
    sub-ranges [cl <= i < ch] of width at most [chunk]. Useful when per-chunk
    set-up cost matters. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] with [f] applied in
    parallel. [n = 0] yields [[||]]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] creates a pool, runs [f], and shuts the pool down
    even if [f] raises. *)
