(** Toeplitz matrices, represented by their diagonal vector.

    An n×n Toeplitz matrix is [d] of length 2n-1 with
    T(i,j) = d.(n-1 + i - j) — the paper's matrix (4) built from a sequence
    a₀ … a₍₂ₙ₋₂₎ is exactly [d = a].  Row 0 reads d(n-1), d(n-2), … d(0);
    column 0 reads d(n-1), d(n), … d(2n-2).

    All operations are straight-line; products are delegated to the
    convolution black box. *)

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  val entry : n:int -> F.t array -> int -> int -> F.t

  val matvec : n:int -> F.t array -> F.t array -> F.t array
  (** One convolution: (T·v)ᵢ = conv(d, v)₍ₙ₋₁₊ᵢ₎. *)

  val to_dense : n:int -> F.t array -> Kp_matrix.Dense.Core(F).t

  val of_dense : n:int -> Kp_matrix.Dense.Core(F).t -> F.t array
  (** Reads the first row and column (no consistency check — use on known
      Toeplitz matrices). *)

  val leading_principal : n:int -> F.t array -> int -> F.t array
  (** [leading_principal ~n d i]: diagonal vector (length 2i-1) of the i×i
      leading principal submatrix. *)

  val random : (unit -> F.t) -> int -> F.t array
  (** Fresh diagonal vector of length 2n-1 from the supplied generator. *)

  val lower_triangular_apply : F.t array -> F.t array -> F.t array
  (** [lower_triangular_apply a w]: L(a)·w where L(a) is lower-triangular
      Toeplitz with first column [a] (= conv(a,w) truncated to |w|). *)
end
