(** The Gohberg/Semencul representation of a Toeplitz inverse (Figure 1).

    If T·x = e₁ and T·y = eₙ (x, y the first and last columns of T⁻¹) and
    x₀ is invertible, then

    T⁻¹ = (1/x₀)·( L(x)·U(ỹ) − L(y↓)·U(x̃) )

    with L(a) lower-triangular Toeplitz (first column a), U(ỹ)
    upper-triangular Toeplitz with first row (y₍ₙ₋₁₎ … y₀), y↓ the
    down-shift (0, y₀ … y₍ₙ₋₂₎) and x̃ the row (0, x₍ₙ₋₁₎ … x₁).

    So T⁻¹ is fully determined by two vectors, and applying it costs four
    convolutions — the fact that drives the §3 Newton iteration.  The
    functor is over [FIELD_CORE] so it runs equally over K, over the
    truncated-series ring K[[λ]]/(λ{^ℓ}) (with the Kronecker bivariate
    multiplier), over counting fields and over circuit builders. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  val apply : x:F.t array -> y:F.t array -> F.t array -> F.t array
  (** [apply ~x ~y v] = T⁻¹·v (four convolutions + one inversion of x₀):
      the triangular-Toeplitz chain L(x)·U(ỹ)·v, then L(y↓)·U(x̃)·v. *)

  val trace : x:F.t array -> y:F.t array -> F.t
  (** Trace(T⁻¹) = (1/x₀)·( Σₘ (n−m)·xₘ·y₍ₙ₋₁₋ₘ₎ − Σₘ≥₁ (n−m)·y₍ₘ₋₁₎·x₍ₙ₋ₘ₎ )
      (0-indexed) — the closed form behind "we can compute
      Trace(X_{log n}) mod λⁿ from the first and last columns". *)

  val first_last_columns_dense :
    x:F.t array -> y:F.t array -> Kp_matrix.Dense.Core(F).t
  (** Materialise T⁻¹ from the representation (testing helper, O(n²)). *)
end
