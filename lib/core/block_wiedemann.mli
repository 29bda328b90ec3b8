(** The block-Wiedemann engine (Coppersmith's blocking of Wiedemann's
    reduction), on a black box.

    The scalar engine ({!Wiedemann}) projects the preconditioned Krylov
    space onto one (u, v) pair: 2n terms of {u·Ãⁱ·v}.  Here the
    projections widen to a b×n block Uᵀ and an n×b block V, so
    S_i = Uᵀ·Ãⁱ·V needs only σ = 2⌈n/b⌉ + 3 terms (Eberly et al.,
    cs/0701188).  The engine is the scalar engine's parts: Ã = A·P is
    {!Wiedemann.Make.precondition}'s composition ([Auto] is the
    butterfly, arXiv 1607.04514); each column of V runs one
    {!Kp_seqgen.Linrec.Make.krylov_pass} of Ã projected onto every row
    of Uᵀ; and every Y·c below is a sum of
    {!Wiedemann.Make.cayley_hamilton_sum} over the columns' kept Krylov
    vectors.  F(λ), a minimal {e matrix} generator, comes from
    {!Kp_seqgen.Matrix_bm}; right-hand sides ride as columns of V.  A
    first-attempt dense solve is b·(σ − 1) applies of Ã
    ([blackbox.preconditioned.applies]) plus one residual apply of A per
    right-hand side.

    Attempts, certificates and singular verdicts follow the {!Las_vegas}
    contract, with the blocking factor escalating alongside |S| across
    attempts.  A singular F(0) is the block analogue of λ | f: with
    F(0)·c = 0 and Y the n×b matrix with Ã·Y = −V·F(0), w = P·(Y·c) has
    A·w = 0, and the run ends with [Singular] once that check passes.  A
    degree sum Σδ < n alone is a plain retry.  The engine has no rank
    route: a rank is answered by {!Nullspace} or by elimination.

    At b = 1 the engine draws exactly what
    {!Wiedemann.Make.solve_preconditioned} draws (P, then u): V = [b],
    F(λ) is 1×1, and the extraction is the Cayley–Hamilton sum
    −(1/f₀)Σ f_{i+1}Ãⁱb.  Small fields carry the usual caveat: the
    success probability of a block projection degrades over GF(q) with
    small q (Harrison–Johnson–Saunders, arXiv 1412.5071) — the retry
    escalation of |S| and b is what restores convergence, and the kernel
    check keeps a short generator from reading as "singular".

    Telemetry: [block.solve] and [block.det] spans, each attempt split
    into [block.krylov] (the b passes), [block.generator] (matrix
    Berlekamp–Massey and its checks) and, for a solve, [block.recover];
    counters [block.krylov.blocks] (σ per evaluation),
    [block.factor.escalate] and [block.solve.batched]. *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  module Bb : module type of Kp_matrix.Blackbox.Make (F)

  module O = Kp_robust.Outcome

  val solve :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** Solve A·x = b through the block pipeline.  [Ok (x, _)] comes with
      the certificate A·x = b checked; the error taxonomy (a checked
      [Singular], retries, deadline) is {!Las_vegas}'s.
      [block_factor] defaults to 4 once n ≥ 64, 1 below.  Raises
      [Invalid_argument] on a 0-dimensional black box, a right-hand side
      of the wrong length or a [block_factor] below 1. *)

  val solve_batch :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> F.t array array ->
    (F.t array array * O.report, F.t array O.error) result
  (** Solve A·xⱼ = bⱼ for a batch: the right-hand sides become columns of
      the start block V (chunked to at most min(n, 32) per block run, the
      blocking factor growing to cover each chunk), so one set of Krylov
      passes and one matrix generator serve the whole chunk.
      All-or-nothing: the first failing chunk aborts with its typed error;
      every returned solution is residual-checked. *)

  val det :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?block_factor:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> (F.t * O.report, F.t array O.error) result
  (** Determinant via det F(λ) = det Λ·det(λI−Ã):
      det A = (−1)ⁿ·det F(0)/(det Λ·det P), through
      {!Las_vegas.Make.det} (two agreeing evaluations; [Singular] is
      [Ok (F.zero, _)]).  Each evaluation also projects its Krylov passes
      onto a fresh Uᵀ′ and requires the generator to generate that
      sequence too; it keeps no Krylov vectors. *)
end
