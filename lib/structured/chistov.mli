(** Chistov's method: characteristic polynomials over ANY characteristic
    (§5, complexity (12)).

    Leverrier divides by 2..n, so the §3 engine needs char 0 or > n.  The
    paper's escape (following Chistov 1985) computes, for every leading
    principal submatrix Tᵢ of the Toeplitz matrix,

    βᵢ(λ) = ((Iᵢ − λTᵢ)⁻¹)ᵢ,ᵢ = det(I − λT₍ᵢ₋₁₎) / det(I − λTᵢ)

    as a power series mod λ{^(n+1)} (a Neumann series of Toeplitz
    matrix–vector products), so that det(I − λT) = (Π βᵢ)⁻¹.  Every series
    inverted has constant term 1, so no division by 2..n ever happens — at
    the price of a factor ~n more work, which experiment E6 measures. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  val diagonal_resolvent_entry : n:int -> len:int -> F.t array -> F.t array
  (** [(Iₙ − λT)⁻¹]ₙ,ₙ mod λ{^len} by the Neumann series (straight-line). *)

  val charpoly : n:int -> F.t array -> F.t array
  (** Same contract as {!Toeplitz_charpoly.Make.charpoly}: det(λI − T)
      low-to-high, monic, but valid over any field.  The Neumann series is
      evaluated sequentially (cheapest total work, Θ(n) depth). *)

  val charpoly_parallel : n:int -> F.t array -> F.t array
  (** The §5 composition the paper describes: each βᵢ is extracted from the
      first/last columns of (Iᵢ − λTᵢ)⁻¹ computed by the §3 Newton
      iteration, keeping O((log n)²) depth at the (12) work bound.
      Identical output to {!charpoly}. *)

  val det : n:int -> F.t array -> F.t
end
