(** Least-squares solutions over characteristic-zero fields (§5, last
    paragraph: "the techniques of Pan (1990a) combined with the processor
    efficient algorithms for linear system solving presented here
    immediately yield processor efficient least-squares solutions ...
    over any field of characteristic zero").

    For full-column-rank A (m×n, m ≥ n), the least-squares solution is the
    unique solution of the normal equations A{^tr}A·x = A{^tr}b, a
    non-singular n×n system handed to the Theorem-4 solver.  Over ℚ the
    computation is exact. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome

  val solve :
    ?card_s:int ->
    Random.State.t -> M.t -> F.t array -> (F.t array, F.t array O.error) result
  (** Minimizer of ‖A·x − b‖² for full-column-rank A; verified against the
      normal equations.  [Error (Singular _)] when A{^tr}A is singular,
      i.e. A is column-rank-deficient.
      @raise Invalid_argument unless char F = 0. *)

  val residual_orthogonal : M.t -> F.t array -> F.t array -> bool
  (** Check A{^tr}(A·x − b) = 0 — the defining property of the minimizer. *)
end
