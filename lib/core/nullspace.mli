(** Nullspace bases and singular systems (§5).

    With Â = U·A·V of rank r whose leading r×r block Âᵣ is non-singular,

    Â·E = [Âᵣ 0; C 0],  E = [Iᵣ  −Âᵣ⁻¹B; 0  I₍ₙ₋ᵣ₎]

    "hence the right null space of A is spanned by the columns of
    V·[−Âᵣ⁻¹B; I₍ₙ₋ᵣ₎]" — requiring Theorem 6 (inversion / solving) on the
    non-singular block only.  A particular solution of a consistent
    singular system comes from the same decomposition.

    The whole decomposition is one attempt under {!Kp_robust.Retry}: an
    unlucky preconditioner (rank profile not generic) rejects with
    [Rank_mismatch] and is redrawn with an escalated sample set. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome

  val nullspace :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> (F.t array list, F.t array O.error) result
  (** Basis W of the right nullspace (empty list for non-singular input).
      Every basis vector is verified against A·v = 0 before acceptance,
      so n − |W| is a proved rank: a certified non-singular r×r minor
      below, n − r independent kernel vectors above. *)

  val solve_singular :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> F.t array ->
    (F.t array option, F.t array O.error) result
  (** [Ok (Some x)] with A·x = b verified; [Ok None] when the system is
      (against the computed decomposition) inconsistent. *)
end
