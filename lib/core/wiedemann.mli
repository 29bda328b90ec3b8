(** Wiedemann's black-box method (§2), the sequential instantiation.

    The paper's parallel algorithm is Wiedemann's reduction executed with
    Krylov doubling and the §3 Toeplitz engine; this module is the original
    1986 form — 2n black-box applications and Berlekamp/Massey — which is
    both the sequential baseline of the experiments and the practical
    choice for sparse or implicitly represented matrices (it never touches
    the matrix entries).

    All routines are Las Vegas where a certificate is available (solutions
    are verified against the black box) and Monte Carlo otherwise
    (minimum polynomial: always a divisor of the truth; the failure
    probability follows estimate (2) once preconditioned).  Attempts,
    certificates and singular verdicts follow the {!Las_vegas} contract.
    For f = λᵏ·h, k ≥ 1, the Cayley–Hamilton accumulator
    Σᵢ fᵢ·Ãⁱ⁻¹·v = Ãᵏ⁻¹·h(Ã)·v (deg f − 1 applies) is non-zero with
    Ã·acc = f(Ã)·v = 0 whenever f generates v, so w = P·acc is the
    kernel vector a singular verdict checks (A·w = 0; no det P).

    A solve ({!solve}, {!solve_preconditioned}) keeps the first
    k = min(n, ⌊ops/n⌋) vectors Ãⁱ·b of its Krylov pass, ops being one
    apply of the given box's cost ([ops_per_apply]), so the basis never
    holds more words than one apply costs operations: all n for a dense
    A, a few dozen for a sparse one, none for a box of unknown cost
    ([ops_per_apply = 0]).  Cayley–Hamilton reads Ãⁱ⁻¹·b off that prefix
    and applies Ã only past it, for x and for a singular verdict's w
    alike: a dense solve's first attempt is 2n − 1 applies of Ã plus the
    residual apply of A (3n − 2 plus one with k = 0), with the same x,
    w, attempts and draws for every k.  {!det} and {!precompute} (which
    need Cayley–Hamilton only when λ | f) and {!apply_precomp} (a new b
    on every call) keep none.  Past the prefix, Krylov and
    Cayley–Hamilton applies write into two buffers the loop owns
    ({!Bb.t}'s [apply_into]): on a CSR or dense operator with the
    butterfly preconditioner such an iteration allocates nothing.

    Telemetry: every routine runs inside a {!Kp_obs.Span} (e.g.
    [wiedemann.solve]).  Below it, each sequence run is split into
    [wiedemann.krylov] (the 2n − 1 applies and 2n projections) and
    [wiedemann.generator] (Berlekamp–Massey), and each solution into
    [wiedemann.cayley_hamilton] — once per evaluation, so [det]'s two
    evaluations record two of each.  The retry engine records
    per-attempt counters —
    [wiedemann.attempts], [wiedemann.successes], [wiedemann.failures], and
    [wiedemann.rejections.*] — plus one [wiedemann.attempt] event per
    attempt with its index and outcome.  Black-box applications of the
    iterated operator are counted via {!Bb.instrument}
    ([blackbox.applies] / [blackbox.ops]). *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  module Bb : module type of Kp_matrix.Blackbox.Make (F)
  module O = Kp_robust.Outcome

  val minimal_polynomial :
    ?card_s:int -> Random.State.t -> Bb.t -> F.t array
  (** Monic minimum-polynomial candidate of the black box (a divisor of
      the true minimum polynomial; equal to it with probability
      ≥ 1 − 2·deg/card(S), Lemma 2). Low-to-high coefficients. *)

  val solve :
    ?retries:int -> ?card_s:int -> ?deadline_ns:int64 ->
    Random.State.t -> Bb.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** Solve A·x = b for a non-singular black box via the minimum polynomial
      of the sequence {A^i b}: x = −(1/f₀)·Σ f₍ᵢ₊₁₎·Aⁱ·b, read off the
      kept Krylov basis.  Verified; λ | f is [Error (Singular _)] once
      its kernel vector checks.
      Raises [Invalid_argument] on a 0-dimensional black box or a
      right-hand side of the wrong length. *)

  val precond_blackbox : F.t Kp_precond.Precond.t -> Bb.t
  (** A preconditioner record lifted into the black-box algebra:
      [apply_into] is the record's P·v into a destination,
      [apply_transpose] Pᵀ·v, and [ops_per_apply] the record's (lazy)
      measured cost, forced here. *)

  val kind_of : Kp_precond.Precond.choice -> Kp_precond.Precond.kind
  (** [Auto] resolves to the sparse butterfly on every black box. *)

  val precondition :
    card_s:int -> Kp_precond.Precond.kind -> Random.State.t -> Bb.t ->
    F.t Kp_precond.Precond.t * Bb.t
  (** Draw P from S and compose Ã = A·P, instrumented as
      [blackbox.preconditioned]: the operator every preconditioned
      routine here and in {!Block_wiedemann} iterates. *)

  val kept : Bb.t -> int
  (** k = min(n, ⌊ops/n⌋) Krylov vectors a solve keeps for a box of this
      cost: n for a dense A, none for an unknown cost. *)

  val cayley_hamilton_sum :
    ?basis:F.t array array -> Bb.t -> F.t array -> deg:int -> F.t array ->
    F.t array
  (** Σ_{i=1}^{deg} fᵢ·Aⁱ⁻¹·v, reading Aⁱ⁻¹·v off [basis] (a Krylov
      pass's kept prefix) while it lasts and applying A past it. *)

  val solve_preconditioned :
    ?retries:int -> ?card_s:int -> ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** The paper's preconditioned route, black-box form: solve Ã·y = b for
      Ã = A·P (black-box composition), then recover x = P·y.  [Auto]
      resolves to the {e sparse} butterfly here — the operand is a black
      box, so an O(n log n)-per-apply P keeps the whole iteration sparse;
      pass [Forced Dense_hd] for the legacy Hankel·Diagonal.  y is read
      off the kept Krylov basis: on a dense A a first attempt is 2n − 1
      applies of Ã and one of A.  The residual
      A·x = b is verified against the original black box, so the kind never
      affects correctness.  [Ok (x, report)] carries the number of
      preconditioner draws consumed in [report.attempts].  Raises
      [Invalid_argument] as {!solve} does. *)

  val det :
    ?retries:int -> ?card_s:int -> ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> (F.t * O.report, F.t array O.error) result
  (** Determinant via the paper's preconditioning, retried until the
      minimum polynomial reaches full degree: det A = (−1)ⁿ·f(0)/det P.
      [Auto] resolves sparse, as in {!solve_preconditioned}.
      Reports [Ok (F.zero, _)] only once a kernel vector has checked.
      Raises [Invalid_argument] on a 0-dimensional black box. *)

  type precomp = {
    op : Bb.t;  (** A, as given (for a dense A, its prepared operator) *)
    p : F.t Kp_precond.Precond.t;
        (** P, its network prepared when it was drawn *)
    f : F.t array;
        (** the monic degree-n generator of {u·Ãⁱ·v}, Ã = A·P (the
            characteristic polynomial of Ã), with f(0) ≠ 0 *)
    det_p : F.t;  (** det P, non-zero *)
  }
  (** The b-independent prefix of {!solve_preconditioned} and {!det}: one
      record answers every later right-hand side and the determinant. *)

  val precompute :
    ?retries:int -> ?card_s:int -> ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> Bb.t -> (precomp * O.report, F.t array O.error) result
  (** Certified construction of a {!precomp}, through the same
      per-attempt evaluation as {!det} (same draws, then one more: a
      second projection u′).  An attempt is accepted only when f is monic
      of degree n, f also generates the u′ projection of the same Krylov
      pass (one extra dot per step, no extra apply), f(0) ≠ 0, and two
      evaluations of det P agree and are non-zero.  λ | f ends the run
      with [Error (Singular _)] once its kernel vector checks.  A first
      attempt costs
      2n − 1 applies of Ã.  [Auto] resolves sparse.  Raises
      [Invalid_argument] on a 0-dimensional black box. *)

  val apply_precomp : precomp -> F.t array -> F.t array
  (** x = P·y with y = Ã⁻¹·b by Cayley–Hamilton on the cached f: n − 1
      applies of an Ã composed afresh around the cached operator and
      network (each call owns its buffers, so calls may run on several
      domains at once).  Unverified: the caller checks A·x = b.  Raises
      [Division_by_zero] if f(0) = 0 (a corrupted record) and
      [Invalid_argument] on a right-hand side of the wrong length. *)

  val det_of_precomp : precomp -> F.t
  (** det A = (−1)ⁿ·f(0)/det P, read off the record. *)
end
