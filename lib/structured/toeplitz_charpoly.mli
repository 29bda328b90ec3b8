(** Characteristic polynomial of a Toeplitz matrix — Theorem 3 (Pan 1990b).

    The algorithm of §3: Newton iteration (3) applied to B = T(λ) = I − λT
    over K[[λ]], maintaining only the first and last columns of
    Xᵢ ≡ T(λ)⁻¹ mod λ^{2^i} through the Gohberg/Semencul representation
    (each step costs O(1) bivariate products, done by Kronecker substitution
    over the supplied convolution black box).  From the final columns the
    trace series Σₖ Trace(Tᵏ)·λᵏ is read off in closed form, and
    Leverrier/Schönhage converts power sums to the characteristic
    polynomial.

    Requires characteristic 0 or > n (the Leverrier step divides by 2..n);
    {!Chistov} removes the restriction at a factor-n cost, reproducing the
    complexity split of §5. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  val inverse_columns :
    n:int -> len:int -> F.t array -> F.t array array * F.t array array
  (** [inverse_columns ~n ~len d]: first and last columns of
      (I − λT)⁻¹ mod λ{^len}, as [n] series of length [len] each.
      Straight-line (Newton iteration, no zero tests). *)

  val trace_series : n:int -> len:int -> F.t array -> F.t array
  (** Σₖ₌₀ Trace(Tᵏ)·λᵏ mod λ{^len} (so coefficient 0 is n·1). *)

  val charpoly : n:int -> F.t array -> F.t array
  (** Coefficients of det(λI − T), low-to-high, length n+1, monic.
      [d] is the Toeplitz diagonal vector of length 2n-1. *)

  val det : n:int -> F.t array -> F.t
  (** det(T) = (−1)ⁿ·charpoly(0). *)

  val solve : n:int -> F.t array -> F.t array -> F.t array
  (** [solve ~n d b]: the unique solution of T·x = b via the characteristic
      polynomial and Cayley–Hamilton,
      T⁻¹ = −(1/c₀)·Σₖ₌₁ cₖ·T^(k−1) — the "solution of non-singular Toeplitz
      systems" half of the paper's reduction, usable standalone (e.g. Padé
      approximation, examples/pade).  Straight-line; a singular T raises
      [Division_by_zero] in concrete fields. *)
end
