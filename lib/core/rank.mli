(** Randomized rank (§5).

    "... by a randomization such that precisely the first r principal
    minors in the randomized matrix are not zero, and then by performing a
    binary search for the largest non-singular principal submatrix"
    (cf. Borodin, von zur Gathen & Hopcroft 1982).

    Â = U·A·V with random non-singular U, V has, with high probability,
    non-singular leading principal minors exactly up to rank(A); each
    candidate minor is tested with a Theorem-4 determinant (Las Vegas),
    so the only Monte Carlo component is the rank-profile genericity.
    Over a small field that genericity fails and the search stops low,
    so {!rank}, with no upper-bound check, serves only {!Polygcd} (whose
    gcd is checked by division); {!Nullspace} runs {!search} and checks
    the upper bound (A·W = 0 for n − r kernel vectors). *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;  (** U·A·V *)
  }

  val precondition : Random.State.t -> ?card_s:int -> M.t -> preconditioned

  val search :
    det:(M.t -> (F.t * O.report, F.t array O.error) result) ->
    M.t -> (int, F.t array O.error) result
  (** [search ~det â]: the largest i whose leading i×i minor of [â] has
      [det] ≠ 0, by binary search.  Only [Ok d] decides a minor; the first
      [Error e] (an exhausted budget, a detected fault, a spent deadline)
      ends the search and is returned — never read as "singular". *)

  val rank :
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    ?route:S.route -> Random.State.t -> M.t -> (int, F.t array O.error) result
  (** {!search} over Â with the certified {!Solver.Make.det} (6 attempts
      per minor).  [deadline_ns] and [route] reach every minor's
      determinant ({!Solver.Make.route}). *)
end
