(** Polynomial GCDs and resultants through structured linear algebra (§5).

    The paper: "The efficient parallel algorithms for computing the
    characteristic polynomial of a Toeplitz matrix are extendible to
    structured Toeplitz-like matrices such as Sylvester matrices.  In
    particular, it is then possible to compute the greatest common divisor
    of two polynomials ..."

    The reductions used here:
    - Res(f,g) = det S(f,g): one Theorem-4 determinant of the (banded
      Toeplitz-like) Sylvester matrix;
    - deg gcd = m + n − rank S(f,g): the §5 randomized rank;
    - the cofactor pair (−g/h, f/h) spans the nullspace of the restricted
      Sylvester system; one elimination on that thin system plus one exact
      division recovers h = gcd.

    Both Monte Carlo ingredients (rank) are verified: the result is checked
    to divide f and g and to have the Bezout degree bound, and the whole
    computation retried through {!Kp_robust.Retry} on failure — Las Vegas
    overall, matching Euclid.  Failures are typed
    ({!Kp_robust.Outcome.error}); invariants that should hold
    deterministically surface as [Fault_detected]. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module P : module type of Kp_poly.Dense.Make (F)
  module O = Kp_robust.Outcome

  val resultant :
    ?card_s:int -> Random.State.t -> P.t -> P.t -> (F.t, F.t array O.error) result
  (** Resultant via the Theorem-4 determinant of the Sylvester matrix. *)

  val resultant_blackbox :
    ?card_s:int -> Random.State.t -> P.t -> P.t -> (F.t, F.t array O.error) result
  (** Resultant via black-box Wiedemann on the structured Sylvester
      operator (two convolutions per application, never materialising the
      matrix) — the §5 "Toeplitz-like" exploitation, asymptotically
      Õ((m+n)²) total instead of (m+n)^ω. *)

  val gcd_degree :
    ?card_s:int -> ?deadline_ns:int64 ->
    Random.State.t -> P.t -> P.t -> (int, F.t array O.error) result
  (** m + n − rank S(f,g) by the randomized rank (0 for coprime inputs);
      the rank search's typed error when a minor's determinant fails. *)

  val gcd :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    Random.State.t -> P.t -> P.t -> (P.t, F.t array O.error) result
  (** Monic gcd, cross-checked against division; retried on bad luck with
      sample-set escalation. *)

  val bezout :
    ?card_s:int ->
    ?deadline_ns:int64 ->
    Random.State.t -> P.t -> P.t -> (P.t * P.t * P.t, F.t array O.error) result
  (** [(h, u, v)] with [u·f + v·g = h = gcd(f,g)], deg u < deg g − deg h and
      deg v < deg f − deg h — "the coefficients of the polynomials in the
      Euclidean scheme" (§5), by solving the corresponding Sylvester-type
      linear system.  Identity verified before returning. *)
end
