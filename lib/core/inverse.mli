(** Matrix inversion — Theorem 6.

    The paper's route: take the (randomized) determinant circuit of
    Theorem 4, apply the Baur/Strassen transformation (Theorem 5), and read
    the inverse off the gradient:  A⁻¹ᵢⱼ = (∂det/∂xⱼᵢ)/det(A).
    [inverse] does exactly that — it traces the straight-line pipeline into
    a circuit, differentiates it, and evaluates the derivative circuit —
    so the object whose size/depth Theorem 6 bounds is literally
    constructed.  [inverse_via_solves] is the pedestrian n-solves
    cross-check. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module S : module type of Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome

  val det_circuit :
    n:int ->
    charpoly:[ `Leverrier | `Chistov ] ->
    Kp_circuit.Circuit.t
  (** The Theorem-4 determinant circuit: n² inputs (the matrix entries,
      row-major), 5n-1 random nodes (2n-1 Hankel + n diagonal + n u + n v).
      Note: a fresh circuit is built per call (the builder is generative). *)

  val inverse :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    Random.State.t -> M.t -> (M.t * O.report, F.t array O.error) result
  (** Theorem-6 inversion with Las Vegas verification (A·A⁻¹ = I).  An
      attempt whose circuit meets det = 0 runs one dense one-attempt
      {!Solver.Make.solve} on a random b, whose [Singular] ends the run;
      anything else is a plain retry. *)

  val inverse_via_solves :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> M.t -> (M.t * O.report, F.t array O.error) result
  (** n independent Theorem-4 solves against the basis vectors.  Per-column
      random states are split off [st] up front (in column order), so the
      result is a deterministic function of [st] whether or not a pool is
      supplied; with [?pool] the columns fan out on the pool (counted in
      [pool.inverse.columns]) and each solve fans its matrix products out
      on the same pool ({!Kp_matrix.Dense.Make.mul_parallel}).
      The report (on success or inside the error) accumulates attempts over
      the columns preceding the first failure. *)

  val merge_columns :
    n:int ->
    (F.t array * O.report, F.t array O.error) result array ->
    (M.t * O.report, F.t array O.error) result
  (** Assemble n per-column solve results into the inverse matrix, merging
      reports in column order (the error of the first failed column carries
      the attempts of the columns before it).  Exposed so the session layer
      can assemble an inverse from cached-precomputation column solves. *)

  val solve_columns :
    ?pool:Kp_util.Pool.t ->
    n:int ->
    (int -> Random.State.t -> F.t array -> (F.t array * O.report, F.t array O.error) result) ->
    Random.State.t ->
    (M.t * O.report, F.t array O.error) result
  (** The column fan-out skeleton of {!inverse_via_solves}: pre-splits one
      state per column (so the answer is a function of [st] alone, for any
      pool size), runs [solve_col j st_j e_j] for each basis vector —
      pooled when [?pool] has more than one domain — and merges with
      {!merge_columns}. *)
end
