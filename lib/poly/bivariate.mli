(** Bivariate truncated products by Kronecker substitution.

    The §3 Newton iteration multiplies polynomials in the "outer" variable z
    whose coefficients are power series in λ truncated mod λ{^len} — the
    paper's bivariate polynomial multiplication (it cites Cantor–Kaltofen
    for an O(size · polylog) circuit).  Substituting λ = z{^(2·len-1)}
    reduces one such product to a single long univariate product over the
    base field, delegated to the supplied {!Conv.S} multiplier, so an
    O(m log m) multiplier gives the paper's complexity. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Conv.S with type elt = F.t) : sig
  val mul_outer : len:int -> F.t array array -> F.t array array -> F.t array array
  (** [mul_outer ~len a b] where [a] and [b] are arrays of series (each of
      length exactly [len]): the product in the outer variable with inner
      series multiplied and truncated mod λ{^len}.  Result has outer length
      la+lb-1 (empty if either is empty). *)

  val scale_outer : len:int -> F.t array -> F.t array array -> F.t array array
  (** Multiply every outer coefficient by one series (truncated). *)
end

(** The same product packaged as a {!Conv.S} whose element type is a
    truncated series of length [L.len] — plug this into any structured
    kernel (Toeplitz matvec, Gohberg/Semencul) to run it over
    K[[λ]]/(λ{^len}). *)
module Series_conv
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Conv.S with type elt = F.t)
    (L : sig
      val len : int
    end) : Conv.S with type elt = F.t array
