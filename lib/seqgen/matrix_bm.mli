(** Matrix Berlekamp/Massey: minimal right matrix generators of block
    sequences — the sequential engine behind the block-Wiedemann solver.

    A block projection sequence S_i = Uᵀ·Ãⁱ·V (b×b each) is linearly
    generated on the right: there are polynomial columns
    f(λ) = Σᵢ fᵢ λⁱ ∈ K[λ]{^b} with Σᵢ S_{m+i}·fᵢ = 0 for every window m.
    The b columns of minimal degree form the {e minimal matrix generator}
    F(λ); generically (Coppersmith; Villard 1997) its column degrees sum to
    n, its determinant is a scalar multiple of the characteristic polynomial
    of Ã, and each column lifts to Σᵢ Ãⁱ·V·fᵢ = 0.

    The computation is an iterative order basis (M-Basis, Giorgi–Jeannerod–
    Villard style) on E(λ) = [T(λ) | −I_b] with column shift (0{^b}, 1{^b}),
    T(λ) = Σ S_i λⁱ: one Gaussian elimination of the b×2b discrepancy per
    order, O(σ²b³) field operations for order σ — for the block-Wiedemann
    instantiation σ ≈ 2n/b, i.e. O(n²b), negligible next to the O(n³)
    Krylov phase.

    Everything here is exact and deterministic; the probabilistic leaps
    (does U see the whole Krylov space, do the degrees sum to n) are
    validated by the caller with {!generates}/{!degree_sum} plus the
    residual and two-evaluation certificates of the block engine.

    At b = 1 the order basis degenerates to scalar Berlekamp/Massey:
    {!to_scalar} of the generator equals
    {!Berlekamp_massey.Make.minimal_polynomial} on any sequence of length
    ≥ 2·deg + 1 (bit-identical after the monic normalization). *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  type generator = {
    b : int;  (** blocking factor *)
    degrees : int array;
        (** nominal column degrees δ_j, ascending; Σδ_j = n certifies a
            full-rank generator *)
    cols : F.t array array array;
        (** [cols.(j).(i)] is fᵢ ∈ K{^b} of column j, i = 0..δ_j *)
  }

  val minimal_generator : b:int -> F.t array array -> generator
  (** [minimal_generator ~b seq] with [seq.(i)] the b×b term S_i in
      row-major order: the b smallest-degree columns of the order-σ basis,
      σ = length of [seq].  The result is a candidate — callers must
      validate it ({!generates}, degree sum, column-reducedness via
      {!leading_term}) before deriving answers from it.
      @raise Invalid_argument if [b < 1] or a term is not b×b. *)

  val generates : b:int -> F.t array array -> generator -> bool
  (** Exact check of every windowed recurrence
      Σᵢ S_{m+i}·fᵢ = 0, 0 ≤ m ≤ σ−1−δ_j, for every column. *)

  val degree_sum : generator -> int

  val constant_term : generator -> F.t array
  (** F(0) as b×b row-major (column j holds f₀ of generator column j).
      A singular F(0) shows λ | det F, i.e. singularity of Ã — the block
      analogue of f(0) = 0, which the caller turns into a kernel vector
      and checks. *)

  val leading_term : generator -> F.t array
  (** The column-leading-coefficient matrix Λ (entry (r,j) = (f_{δ_j})_r of
      column j), b×b row-major.  det Λ ≠ 0 certifies column-reducedness,
      hence deg det F = Σδ_j; then det(λI−Ã) = det F(λ)/det Λ when the
      degrees sum to n. *)

  val to_scalar : generator -> F.t array option
  (** [Some f] with f the monic low-to-high coefficient array when b = 1
      (actual degree, zero top coefficients stripped); [None] for b > 1 or
      a zero column.  The b = 1 degeneration contract: equals scalar
      Berlekamp/Massey's minimal polynomial. *)
end
