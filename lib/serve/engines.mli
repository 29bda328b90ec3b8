(** The degradation ladder: one entry point per operation, routed across
    the block / scalar / dense engines through per-engine circuit
    breakers.

    Each requested engine names the top rung of a fixed ladder

    {v
      block  : block Wiedemann → scalar session → dense elimination
      auto   : scalar session → dense elimination
      scalar : scalar session → dense elimination
      dense  : dense elimination
    v}

    and a call walks down it: rungs whose {!Breaker} is open are skipped
    outright; a rung that fails with an infrastructure error
    ([Fault_detected], [Retries_exhausted], [Deadline_exceeded]) records
    the failure on its breaker and the call falls through to the next
    rung.  [Singular] is an {e answer} about the input, not an engine
    failure: it closes the breaker and terminates the walk.  The last
    rung, Gaussian elimination, is deterministic and breaker-less — the
    ladder always has an admitting rung.

    When the call carries a deadline, {!Kp_robust.Retry.split_deadline}
    gives each remaining admitting rung an equal share of the remaining
    budget, so one stuck engine cannot eat the whole request; the walk
    stops early once the overall deadline is spent.

    Dense answers are verified (residual check for solves, A·A⁻¹ = I
    spot rows for inverses, two independent eliminations for
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

  val create :
    ?breaker_threshold:int ->
    ?breaker_cooldown_ns:int64 ->
    ?now:(unit -> int64) ->
    session:Sess.t ->
    ?pool:Kp_util.Pool.t ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> t
  (** The breakers guard the block and scalar rungs ([threshold]
      consecutive failures open one for [cooldown_ns], defaults as
      {!Breaker.create}); [now] is injected into them for deterministic
      tests.  [session] serves the scalar rung (and is the matrix cache
      the serving layer shares across requests); the state seeds the
      block and rank rungs.  [pool] fans the block rung's matrix products
      out as row blocks (bit-identical answers); configure the session
      with the same pool to cover the scalar rung too.  [precond] picks the preconditioner kind for the
      fresh-engine rungs (block solve/det, block and scalar rank);
      configure the session with the same choice to cover the scalar
      rung.  A non-dense precond that fails a rung for infrastructure
      reasons gets one dense retry on that rung before the ladder falls
      through ([serve.precond.demote] counter + event). *)

  val breaker_states : t -> (string * Breaker.state) list
  (** [("block", st); ("scalar", st)] — for tests and gauges. *)

  val breaker_codes : t -> (string * int) list
  (** Same, as the 0/1/2 gauge encoding (thread-safe reads). *)

  (** Every operation returns the engine that actually served the
      answer (["block"], ["scalar"] or ["dense"]) so callers — and the
      E15 load bench — can observe demotion and re-promotion. *)

  val solve :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> F.t array ->
    (F.t array * string * O.report, O.error) result

  val solve_batch :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> F.t array array ->
    (F.t array array * string * O.report, O.error) result
  (** All-or-nothing on each rung: a right-hand side failing for
      infrastructure reasons sends the whole batch down the ladder. *)

  val det :
    ?key:string ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> (F.t * string * O.report, O.error) result

  val inverse :
    ?key:string ->
    ?deadline_ns:int64 ->
    engine:Protocol.engine ->
    t -> M.t -> (M.t * string * O.report, O.error) result
  (** The block engine has no inverse route: its ladder starts at the
      scalar rung. *)

  val rank :
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    engine:Protocol.engine ->
    t -> M.t -> (int * string, O.error) result
  (** Monte Carlo on the block/scalar rungs, exact on the dense rung.
      A randomized rank whose minor determinant fails ({!Kp_core.Rank.Make.search})
      falls through to the next rung like any infrastructure error, and
      a {!Kp_robust.Fault.Injected} escape is a breaker-recorded failure,
      not a crash. *)
end
