(** Hankel matrices H(i,j) = h.(i+j), h of length 2n-1.

    The paper's preconditioner (Theorem 2, due to Saunders): Â = A·H with H
    a random Hankel matrix makes all leading principal minors of Â non-zero
    with probability ≥ 1 − n(n-1)/(2·card S).  "The random matrix H is of
    Hankel form, whose mirror image across a horizontal line ... becomes a
    Toeplitz matrix" — hence determinants of Hankel matrices reduce to the
    Toeplitz characteristic-polynomial engine. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  val entry : n:int -> F.t array -> int -> int -> F.t

  val matvec : n:int -> F.t array -> F.t array -> F.t array
  (** One convolution: (H·v)ᵢ = conv(h, rev v)₍ᵢ₊ₙ₋₁₎. *)

  val to_dense : n:int -> F.t array -> Kp_matrix.Dense.Core(F).t

  val to_toeplitz : n:int -> F.t array -> F.t array
  (** Diagonal vector of J·H (rows reversed), a Toeplitz matrix:
      det H = mirror_sign n · det(to_toeplitz h). *)

  val mirror_sign : int -> int
  (** det(Jₙ) = (−1)^(n(n−1)/2). *)

  val random : (unit -> F.t) -> int -> F.t array
end
