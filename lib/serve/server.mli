(** The [kp serve] daemon: a persistent solve service over a Unix domain
    socket, newline-delimited JSON ({!Protocol}), wrapped in the
    robustness layer this PR is about.

    {b Shape.}  Two systhreads.  The {e IO thread} owns the listener and
    every connection: it accepts, reads lines, answers protocol faults
    ([bad_request]) and the cheap ops ([ping], [metrics]) inline, and
    {e admits} solve work onto a bounded queue.  The {e worker thread}
    owns the {!Kp_session} solve session and the {!Engines} ladder —
    sessions are single-owner, so exactly one worker; parallelism lives
    {e inside} a solve via the domain pool, not across requests.

    {b Admission control.}  The queue is bounded by [queue_limit]: a
    request arriving at a full queue is shed with a typed
    {!Kp_robust.Outcome.Overloaded} error carrying a [retry_after_ms]
    hint (queue depth × an EMA of recent per-request service time) —
    callers are never left hanging and never given a wrong answer.

    {b Deadlines.}  A request's [deadline_ms] becomes an absolute
    monotonic deadline at admission and rides the whole path: queueing
    delay spends it, and the engine ladder splits what remains across
    its rungs ({!Kp_robust.Retry.split_deadline}).  It is checked
    between attempts and before each rung starts, so a spent budget is
    a typed [deadline_exceeded]; an attempt already running, or the
    elimination rung once started, runs to completion.

    {b Graceful degradation.}  Requests walk the {!Engines} ladder that
    [kp] shares; per-engine circuit breakers demote block → scalar →
    elimination and re-promote after a cooldown ({!Breaker}); [drain]
    (or SIGTERM via [install_sigterm]) closes the listener, finishes the
    queue and every in-flight request, then stops — bounded by
    [drain_grace_ms].

    {b Observability.}  Counters [serve.*] (accepted, shed, replies,
    bad requests, per-rung ok/fail/skip) plus gauges [serve.queue.depth],
    [serve.inflight], [serve.draining] and
    [serve.breaker.<engine>.state], all visible through the [metrics]
    op and [Kp_obs.Export]. *)

module Make
    (F : Kp_field.Field_intf.FIELD with type t = int)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module E : module type of Engines.Make (F) (C)

  type config = {
    socket_path : string;
    max_n : int;  (** largest accepted matrix dimension (default 512) *)
    queue_limit : int;
        (** admission bound: depth at which new work is shed (default 64;
            [0] sheds everything — the backpressure test mode) *)
    breaker_threshold : int;  (** consecutive failures to open (default 3) *)
    breaker_cooldown_ms : int;  (** re-promotion probe delay (default 2000) *)
    drain_grace_ms : int;
        (** hard bound on the drain phase (default 5000) *)
    max_line_bytes : int;
        (** a connection sending a longer line is answered [oversized]
            and closed (default 4 MiB) *)
    default_deadline_ms : int option;
        (** applied to requests that carry no [deadline_ms] *)
    precond : Kp_precond.Precond.choice;
        (** preconditioner kind for every engine and the shared session
            (default {!Kp_precond.Precond.default_choice}, i.e. [Auto]
            unless [KP_PRECOND] overrides); non-dense kinds demote per
            {!Engines} *)
  }

  val default_config : socket_path:string -> config

  type t

  val start :
    ?pool:Kp_util.Pool.t ->
    ?now:(unit -> int64) ->
    config -> Random.State.t -> t
  (** Bind the socket (replacing a stale file), spawn the IO and worker
      threads, return immediately.  [now] is forwarded to the breakers
      (deterministic tests); the state seeds the session and the block
      engine.  @raise Unix.Unix_error if the socket cannot be bound. *)

  val engines : t -> E.t
  (** The worker's engine ladder — read-only introspection
      ([breaker_states]) for tests; do not call operations on it. *)

  val drain : t -> unit
  (** Begin graceful shutdown: stop accepting connections, finish every
      queued and in-flight request, then stop.  Idempotent, returns
      immediately — [wait] for completion. *)

  val draining : t -> bool

  val wait : t -> unit
  (** Join both threads (blocks until a drain completes). *)

  val stop : t -> unit
  (** [drain] then [wait], then remove the socket file and unregister
      the [serve.*] gauges [start] registered. *)

  val install_sigterm : t -> unit
  (** SIGTERM → [drain].  The handler only flips an atomic — safe in a
      signal context. *)
end
