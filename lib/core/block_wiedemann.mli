(** The block-Wiedemann engine (Coppersmith's blocking of the paper's
    Theorem-4 pipeline).

    The scalar engine projects the preconditioned Krylov space onto a
    single (u, v) pair: 2n terms of {u·Ãⁱ·v}, one matvec per term.  Here
    the projections widen to a b×n block Uᵀ and an n×b block V, so the
    sequence S_i = Uᵀ·Ãⁱ·V needs only σ ≈ 2n/b terms, each produced by one
    kernel-backed n×n by n×b product — the dominant phase becomes dense
    matrix multiplication at width b, exactly the shape the PR-5 kernel
    layer and the PR-4 domain pool accelerate (Eberly et al., cs/0701188).
    The scalar generator is replaced by a minimal {e matrix} generator from
    {!Kp_seqgen.Matrix_bm}; right-hand sides ride as columns of V, so a
    batch of k ≤ b systems costs one sequence.

    Attempts, certificates and singular verdicts follow the {!Las_vegas}
    contract, with the blocking factor escalating alongside |S| across
    attempts.  A singular F(0) is the block analogue of λ | f: with
    F(0)·c = 0 and Y the n×b matrix the solve extraction builds
    (Ã·Y = −V·F(0)), w = P·(Y·c) has A·w = 0, and the run ends with
    [Singular] once that check passes.  A degree sum Σδ < n alone is a
    plain retry.  The engine has no rank route: a rank is answered by
    {!Nullspace} or by elimination.

    At b = 1 the engine degenerates to the scalar pipeline: V = [b],
    F(λ) is 1×1, and the extraction reduces to the Cayley–Hamilton sum
    −(1/f₀)Σ f_{i+1}Ãⁱb.  Small fields carry the usual caveat: the
    success probability of a block projection degrades over GF(q) with
    small q (Harrison–Johnson–Saunders, arXiv 1412.5071) — the retry
    escalation of |S| and b is what restores convergence, and the kernel
    check keeps a short generator from reading as "singular". *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module P : module type of Pipeline.Make (F) (C)
  module M = P.M
  module MBM : module type of Kp_seqgen.Matrix_bm.Make (F)

  module O = Kp_robust.Outcome

  val auto_block_factor : n:int -> pool:Kp_util.Pool.t option -> int
  (** Default blocking factor: wide enough for the pool's workers (and at
      least 4 once n ≥ 64, where kernel-call amortization pays), capped at
      8 and at n/2. *)

  val solve :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** Solve A·x = b through the block pipeline.  [Ok (x, _)] comes with
      the certificate A·x = b checked; the error taxonomy (a checked
      [Singular], retries, deadline) is {!Las_vegas}'s.
      [block_factor] defaults to {!auto_block_factor}. *)

  val solve_batch :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> F.t array array ->
    (F.t array array * O.report, F.t array O.error) result
  (** Solve A·xⱼ = bⱼ for a batch: the right-hand sides become columns of
      the start block V (chunked to at most min(n, 32) per block run, the
      blocking factor growing to cover each chunk), so one Krylov sequence
      and one matrix generator serve the whole chunk.  All-or-nothing:
      the first failing chunk aborts with its typed error; every returned
      solution is residual-checked. *)

  val det :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> (F.t * O.report, F.t array O.error) result
  (** Determinant via det F(λ) = det Λ·det(λI−Ã):
      det A = (−1)ⁿ·det F(0)/(det Λ·det P), through
      {!Las_vegas.Make.det} (two agreeing evaluations; [Singular] is
      [Ok (F.zero, _)]).  Each evaluation also re-projects the Krylov
      blocks onto a fresh Uᵀ′ and requires the generator to generate that
      sequence too. *)
end
