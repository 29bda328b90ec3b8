(** Leverrier/Csanky power-sum → characteristic-polynomial conversion.

    Given the power sums sₖ = Trace(Tᵏ) of the eigenvalues, the Newton
    identities determine det(λI − T).  Both routes divide by 2..n, hence the
    paper's restriction to characteristic zero or > n.

    - [newton_identities]: the O(n²) triangular solve of the paper's
      displayed system (the Csanky route);
    - [from_trace_series]: the O(M(n)) Schönhage route the paper cites —
      det(I − λT) = exp(−Σₖ₌₁ sₖ·λᵏ/k), straight-line. *)

module Make (F : Kp_field.Field_intf.FIELD_CORE) : sig
  val newton_identities : n:int -> F.t array -> F.t array
  (** [newton_identities ~n s] where [s.(k)] = Trace(Tᵏ) for 1 <= k <= n
      ([s.(0)] ignored, array length >= n+1): coefficients of det(λI − T),
      low-to-high, length n+1, monic. *)

  val from_trace_series : n:int -> F.t array -> F.t array
  (** Same contract; input is the trace generating series
      Σₖ Trace(Tᵏ)·λᵏ truncated to length >= n+1 (the §3 engine produces
      exactly this). *)

  val char_to_det : n:int -> F.t array -> F.t
  (** det(T) = (−1)ⁿ · charpoly(0). *)

  val power_sums_of_dense :
    mul:(Kp_matrix.Dense.Core(F).t -> Kp_matrix.Dense.Core(F).t -> Kp_matrix.Dense.Core(F).t) ->
    Kp_matrix.Dense.Core(F).t -> F.t array
  (** sₖ = Trace(Aᵏ) for k = 0..n by repeated products with the supplied
      multiplier — the Csanky baseline's dominant cost (n matrix products =
      the paper's "factor of almost n" processor excess). *)
end
