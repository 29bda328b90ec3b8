(** The Las Vegas attempt contract: Theorem 4's failure discipline,
    written once for every randomized routine in [kp_core].

    - {b Sample set.}  An attempt draws its random elements uniformly
      from a set S with |S| = max(12n², 64), clamped at card(K).  By
      estimate (2) an attempt on a non-singular input then fails with
      probability at most 3n²/|S| ≤ 1/4.
    - {b Attempts.}  {!run} drives {!Kp_robust.Retry.run}: fresh
      randomness per attempt, |S| doubled after each rejection up to the
      ceiling of the requested preconditioner kind
      ({!Kp_precond.Precond.escalation_ceiling}), a deadline checked
      before each attempt.  Each attempt runs with the kind
      {!Kp_precond.Precond.kind_for_attempt} gives it: a non-dense kind
      demotes to [Dense_hd] past the midpoint of the budget.
    - {b Certificates.}  An answer is accepted only once certified: a
      solution by A·x = b ({!verified}), a determinant by two fully
      independent evaluations that agree ({!det}), det P by two
      evaluations where the caller asks ({!det_p}).
    - {b Singular.}  A proof, never a count: an engine whose generator
      shows Ã = A·P singular (λ | f, a singular block F(0)) builds a
      kernel vector w from data it holds, and {!singular} checks w ≠ 0
      and A·w = 0 against the input A.  A pass ends the run with
      [Singular] carrying w, a failure is a plain retry.  A degree below
      n without λ | f proves nothing: over small fields non-singular
      matrices produce them routinely (Eberly, arXiv:1607.04514). *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Pc = Kp_precond.Precond

  val card_s : int -> int
  (** The default |S| for an n×n input: max(12n², 64), clamped at
      card(K). *)

  val sample_vec : Random.State.t -> card_s:int -> int -> F.t array
  (** n draws from S. *)

  val run :
    ns:string ->
    op:string ->
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?kind:Pc.kind ->
    n:int ->
    (attempt:int -> kind:Pc.kind -> card_s:int -> ('a, F.t array) Rt.attempt) ->
    ('a * O.report, F.t array O.error) result
  (** [run ~ns ~op ~n body] drives [body] through {!Kp_robust.Retry.run}
      ([ns] and [op] name its counters and events).  Defaults: 10
      attempts, |S| = {!card_s}[ n], [kind = Dense_hd] (the resolved kind
      the caller requested; it sets the |S| ceiling).  [body] gets the
      1-based attempt index, that attempt's kind and its |S|. *)

  val det :
    ns:string ->
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?kind:Pc.kind ->
    n:int ->
    (attempt:int -> kind:Pc.kind -> card_s:int -> unit ->
     (F.t, F.t array) Rt.attempt) ->
    (F.t * O.report, F.t array O.error) result
  (** {!run} with [op = "det"] for a quantity with no residual
      certificate: [body ~attempt ~kind ~card_s] is one randomized
      evaluation, run twice per attempt, and the attempt is accepted
      only when both evaluations are accepted and agree (a disagreement
      is a [Fault]).  [Singular] is reported as [Ok (F.zero, report)]. *)

  val det_p : twice:bool -> F.t Pc.t -> (F.t, O.reason) result
  (** det P, non-zero: [Division_by_zero] or zero is
      [Singular_preconditioner]; with [~twice] a second evaluation must
      agree ([Fault] otherwise — det P is a function of the drawn entries,
      so a disagreement proves a transient fault). *)

  val is_kernel : apply:(F.t array -> F.t array) -> F.t array -> bool
  (** [is_kernel ~apply w]: w ≠ 0 and A·w = 0, A given by its apply. *)

  val singular :
    apply:(F.t array -> F.t array) -> F.t array -> ('a, F.t array) Rt.attempt
  (** [Error_now (Singular _)] carrying w when {!is_kernel}, else
      [Reject Zero_constant_term]. *)

  val solves : (F.t array -> F.t array) -> F.t array -> F.t array -> bool
  (** [solves apply x b]: A·x = b, A given by its apply. *)

  val verified :
    (F.t array -> F.t array) -> F.t array -> F.t array ->
    (F.t array, F.t array) Rt.attempt
  (** [verified apply x b]: [Accept x] when {!solves}, else
      [Reject Residual_mismatch]. *)
end
