(** Transposed-system solving via Theorem 5 (§4, final application).

    Given the solver circuit c ↦ A⁻¹·c (A, b fixed), the function
    f(c) = (A⁻¹·c)·b has gradient ∇f = (A^tr)⁻¹·b — so one Baur/Strassen
    transformation of the solve circuit, at ≤ 4× its length and O(1)× its
    depth, solves the transposed system without ever forming A^tr.
    (The special case of a transposed Vandermonde system yields fast
    interpolation-based solvers; see examples/transposed_vandermonde.) *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome

  val solve_circuit : n:int -> charpoly:[ `Leverrier | `Chistov ] -> Kp_circuit.Circuit.t
  (** Circuit computing f(c) = (A⁻¹c)·b: inputs = c (n) then A (n², row
      major) then b (n); random nodes as in the solver pipeline. *)

  val solve_transposed :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    Random.State.t -> M.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** Solve A^tr·x = b through the gradient construction, verified against
      A^tr·x = b; retried via {!Kp_robust.Retry} with sample-set
      escalation. *)

  val length_ratio : n:int -> float * float
  (** (size ratio, depth ratio) of the differentiated solve circuit over the
      original — the §4 "4·l(n) and O(d(n))" claim, measured (experiment
      E7). *)
end
