(** The straight-line Kaltofen–Pan pipeline (Theorem 4), as pure circuit
    code: a functor over [FIELD_CORE], no zero tests, no randomness — the
    random elements arrive as arguments.

    Instantiated with a concrete field it computes; with a counting field it
    measures work (E1); with a circuit builder it yields the Theorem-4
    circuit whose depth E2 measures and whose Baur/Strassen transform is the
    Theorem-6 inverse (E4) and the §4 transposed solver (E7).

    Stages: Ã = A·H·D (Hankel × diagonal preconditioning, Theorem 2) →
    Krylov doubling (9) → the degree-n minimal generator → determinant and
    solution, undoing the preconditioner.  The generator stage is a
    parameter: circuit builders pass the paper's Toeplitz route (a
    characteristic-polynomial engine + Cayley–Hamilton, polylog depth);
    the concrete-field solver passes Berlekamp–Massey. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module M : module type of Kp_matrix.Dense.Core (F)
  module K : module type of Krylov.Make (F)

  type charpoly_engine = n:int -> F.t array -> F.t array
  (** Toeplitz charpoly black box: [Toeplitz_charpoly] (char 0 or > n) or
      [Chistov] (any characteristic). *)

  val charpoly_leverrier : charpoly_engine
  (** The §3 engine over this field/convolution. *)

  val charpoly_chistov : charpoly_engine
  (** Sequential Neumann-series variant (least work, Θ(n) depth). *)

  val charpoly_chistov_parallel : charpoly_engine
  (** §5 composition with the §3 Newton iteration — O((log n)²) depth at
      the (12) work bound; use when tracing small-characteristic circuits. *)

  type strategy = Doubling | Sequential
  (** How Krylov vectors are produced: [Doubling] is the paper's (9)
      (O(n^ω log n) size, O((log n)²) depth); [Sequential] trades depth for
      total work (O(n²·m) size, Θ(m) depth). *)

  type generator =
    | Toeplitz of charpoly_engine
        (** §3: characteristic polynomial of the Toeplitz matrix (4) and a
            Cayley–Hamilton application of T⁻¹ — straight-line; a singular
            T divides by zero. *)
    | Direct of (n:int -> F.t array -> F.t array)
        (** Any routine mapping the 2n-term sequence to its degree-n monic
            generator (the concrete-field solver passes Berlekamp–Massey).
            It signals "no degree-n generator" by raising, like the
            Toeplitz route. *)

  type precond = F.t Kp_precond.Precond.t
  (** The pluggable preconditioner P with Ã = A·P (see {!Kp_precond}). *)

  val precond_of :
    charpoly:charpoly_engine ->
    n:int -> h:F.t array -> d:F.t array -> precond
  (** The paper's dense H·Diag(d) from explicit random entries — the
      straight-line constructor used by circuit builders, counting fields
      and tests that supply their own randomness. *)

  val preconditioned : ?mul:(M.t -> M.t -> M.t) -> M.t -> precond -> M.t
  (** Ã = A·P: P materialised densely, then one matrix product (through
      [mul] when given, so a pooled product reaches this stage). *)

  val krylov :
    strategy:strategy ->
    mul:(M.t -> M.t -> M.t) ->
    M.t -> u:F.t array -> v:F.t array -> int -> M.t * F.t array
  (** [krylov ~strategy ~mul ã ~u ~v n]: the 2n Krylov columns Ãⁱ·v and
      the projected sequence {u·Ãⁱ·v}, under the [pipeline.krylov] span. *)

  val minimal_generator :
    ?mul:(M.t -> M.t -> M.t) ->
    generator:generator -> strategy:strategy -> n:int -> F.t array -> F.t array
  (** From the 2n-term sequence {u·Ãⁱ·v}: the degree-n monic generator f
      (length n+1, low-to-high), under the [pipeline.generator] span.
      [mul] and [strategy] only reach the {!Toeplitz} route. *)

  val recover : n:int -> f:F.t array -> p:precond -> M.t -> F.t array
  (** Undo the preconditioner: from the Krylov columns of Ã on b and the
      generator f, x = P·x̃ with x̃ = −(1/f₀)·Σᵢ fᵢ₊₁·Ãⁱ·b.  Divides by
      f(0). *)

  type solve_result = {
    x : F.t array;           (** solution of A·x = b *)
    f : F.t array;           (** the degree-n generator (= charpoly of Ã whp) *)
    seq : F.t array;         (** the 2n-term scalar sequence *)
  }

  val det_hd : charpoly:charpoly_engine -> n:int -> h:F.t array -> d:F.t array -> F.t
  (** det(H)·det(D): Hankel determinant via its Toeplitz mirror (§4),
      diagonal determinant as a product. *)

  val solve :
    ?mul:(M.t -> M.t -> M.t) ->
    generator:generator ->
    strategy:strategy ->
    M.t -> b:F.t array -> p:precond -> u:F.t array ->
    solve_result
  (** The full Theorem-4 straight-line program (v := b).  [mul] is the
      matrix-multiplication black box (default: classical; pass Strassen or
      a pool-parallel product to swap the ω). *)

  val det :
    ?mul:(M.t -> M.t -> M.t) ->
    generator:generator ->
    strategy:strategy ->
    M.t -> p:precond -> u:F.t array -> v:F.t array ->
    F.t
  (** Determinant only (v random rather than a right-hand side). *)
end
