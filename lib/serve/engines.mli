(** The degradation ladder: one entry point per operation, routed across
    the engines through per-engine circuit breakers.  [kp] and [kp serve]
    both answer through it, so an engine name means the same thing on
    both surfaces.

    Each requested engine ({!Protocol.engines}) names the top rung of a
    fixed ladder

    {v
      block  : block → scalar → elimination
      auto   : scalar → elimination
      scalar : scalar → elimination
      dense  : dense alone
    v}

    and the rungs, named as replies and [kp] report them, are

    - [block]: {!Kp_core.Block_wiedemann} on the black box of A, the
      scalar engine's parts widened to b Krylov passes (at b = 1 it
      draws what the scalar engine draws); no inverse route: an inverse
      ladder starts at the scalar rung;
    - [scalar]: the black-box engine.  With a shared [session] (serve) it
      is that {!Kp_session.Session}; without one (the CLI) a solve or det
      is a fresh {!Kp_core.Wiedemann.Make.solve_preconditioned} or
      {!Kp_core.Wiedemann.Make.det}, and a batch or inverse runs on a
      session made for the call.  It has no rank route: a rank ladder
      skips it;
    - [dense]: the paper's Theorem-4 reference — {!Kp_core.Solver},
      {!Kp_core.Nullspace} and {!Kp_core.Inverse} — with no fallback, so
      its answers (small-field errors included) are the reference's own.
      An inverse is the Theorem-6 circuit up to [circuit_max_n] under
      the dense precond, n Theorem-4 solves otherwise;
    - [elimination]: Gaussian elimination, verified.

    A call walks down its ladder: rungs whose {!Breaker} is open are
    skipped outright; a rung that fails with an infrastructure error
    ([Fault_detected], [Retries_exhausted], [Deadline_exceeded]) records
    the failure on its breaker and the call falls through to the next
    admitting rung, announced by a [serve.engine.fallback] event ([op],
    [from], [to], [error]).  [Singular] is an {e answer} about the input
    (every rung's carries a kernel vector it checked, elimination's from
    its nullspace), not an engine failure: it closes the breaker and
    terminates the walk.  The dense and
    elimination rungs have no breaker; elimination is deterministic and
    ends every multi-rung ladder, so that ladder always has an admitting
    rung.

    When the call carries a deadline, {!Kp_robust.Retry.split_deadline}
    gives each remaining admitting rung an equal share of the remaining
    budget, so one retrying engine cannot eat the whole request; the
    walk stops early once the overall deadline is spent.  A share is
    checked between attempts and before a rung starts: an attempt, and
    the elimination rung once started, runs to completion.

    Elimination answers are verified (residual check for solves,
    A·A⁻¹ = I for inverses, two independent eliminations for
    determinants) and {!Kp_robust.Fault.Injected} escapes are mapped to
    typed [Fault_detected] — under fault injection the last resort still
    never returns an unverified answer.

    Counters: [serve.engine.<rung>.{ok,fail,skip}].  Single-owner, like
    the session it drives. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module Sess : module type of Kp_session.Session.Make (F) (C)
  module M = Sess.M
  module O = Kp_robust.Outcome

  type t

  val circuit_max_n : int
  (** 8: the largest n whose [dense] inverse is the Theorem-6 circuit,
      whose trace grows too fast to go further (0.3 GB at n = 8). *)

  val create :
    ?breaker_threshold:int ->
    ?breaker_cooldown_ns:int64 ->
    ?now:(unit -> int64) ->
    ?session:Sess.t ->
    ?pool:Kp_util.Pool.t ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> t
  (** The breakers guard the block and scalar rungs ([threshold]
      consecutive failures open one for [cooldown_ns], defaults as
      {!Breaker.create}); [now] is injected into them for deterministic
      tests.  [session], when given, serves the scalar rung (it is the
      matrix cache the serving layer shares across requests); without
      it the scalar rung runs fresh engines and call-scoped sessions.
      The state seeds every rung that draws outside the shared session.
      [pool] reaches only the dense rung, whose matrix products fan out
      as row blocks (bit-identical answers), and call-scoped sessions,
      which spread a batch's right-hand sides over it; configure a shared
      session with the same pool to cover it too.  The block and scalar
      rungs iterate one black box and stay sequential.
      [precond] picks the preconditioner kind for every rung that is not
      the shared session; configure the session with the same choice to
      cover it.  A non-dense kind demotes to dense inside each engine, per
      attempt past the budget midpoint
      ({!Kp_precond.Precond.kind_for_attempt}); the ladder adds no
      demotion of its own. *)

  val breaker_states : t -> (string * Breaker.state) list
  (** [("block", st); ("scalar", st)] — for tests and gauges. *)

  val breaker_codes : t -> (string * int) list
  (** Same, as the 0/1/2 gauge encoding (thread-safe reads). *)

  (** Every operation returns the rung that actually served the answer
      (["block"], ["scalar"], ["dense"] or ["elimination"]) so callers —
      and the E15 load bench — can observe demotion and re-promotion. *)

  val solve :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> F.t array ->
    (F.t array * string * O.report, F.t array O.error) result

  val solve_batch :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> F.t array array ->
    (F.t array array * string * O.report, F.t array O.error) result
  (** All-or-nothing on each rung: a right-hand side failing for
      infrastructure reasons sends the whole batch down the ladder. *)

  val det :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> (F.t * string * O.report, F.t array O.error) result

  val inverse :
    ?key:string ->
    ?deadline_ns:int64 ->
    engine:Protocol.engine ->
    t -> M.t -> (M.t * string * O.report, F.t array O.error) result
  (** The block engine has no inverse route: its ladder starts at the
      scalar rung. *)

  val rank :
    ?deadline_ns:int64 ->
    engine:Protocol.engine ->
    t -> M.t -> (int * string, F.t array O.error) result
  (** Neither the scalar nor the block rung has a rank route, so the
      ladders are [elimination] alone for [auto], [scalar] and [block],
      and [dense] alone.  Both answers are proved: elimination is exact,
      and the dense rung answers n − |W| for the checked basis W of
      {!Kp_core.Nullspace.Make.nullspace}, or its typed error.  A
      {!Kp_robust.Fault.Injected} escape is a typed failure. *)
end
