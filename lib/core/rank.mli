(** Randomized rank (§5).

    "... by a randomization such that precisely the first r principal
    minors in the randomized matrix are not zero, and then by performing a
    binary search for the largest non-singular principal submatrix"
    (cf. Borodin, von zur Gathen & Hopcroft 1982).

    Â = U·A·V with random non-singular U, V has, with high probability,
    non-singular leading principal minors exactly up to rank(A); each
    candidate minor is tested with the Theorem-4 determinant (Las Vegas),
    so the only Monte Carlo component is the rank-profile genericity. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;  (** U·A·V *)
  }

  val precondition : Random.State.t -> ?card_s:int -> M.t -> preconditioned

  val leading_minor_nonsingular :
    Random.State.t ->
    ?card_s:int ->
    ?precond:Kp_precond.Precond.choice ->
    ?route:S.route -> M.t -> int -> bool
  (** Theorem-4 determinant of the i×i leading principal submatrix,
      retried; [true] iff certified non-singular. *)

  val rank :
    ?card_s:int ->
    ?precond:Kp_precond.Precond.choice ->
    ?route:S.route -> Random.State.t -> M.t -> int
  (** Binary search over leading principal minors of Â.  [route] reaches
      every minor's determinant ({!Solver.Make.route}). *)
end
