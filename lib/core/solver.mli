(** The randomized Las Vegas solver: Theorem 4 under the attempt contract
    of {!Las_vegas} (sample set, retries, certificates, singular proofs).

    Random elements (the 2n-1 Hankel entries, n diagonal entries, and the
    projection vectors) are drawn from the contract's sample set.  A
    solution is checked against A·x = b; a determinant is the agreement of
    two evaluations, each of whose degree-n generators must also generate
    a fresh projection of the same Krylov columns (Lemma 1 then makes it
    the characteristic polynomial of Ã).  All failures are typed
    ({!Kp_robust.Outcome.error}); successes carry the attempt
    {!Kp_robust.Outcome.report}.

    The generator and det(P) stages follow a {!route}.  The default takes
    the generator from Berlekamp–Massey and det(P) from Gaussian
    elimination: the sequential choices, which cost O(n²) and O(n³)
    instead of a Toeplitz characteristic polynomial each.  The paper's
    route ({!Toeplitz_charpoly}) stays available as the reference: it picks
    the §3 Leverrier engine if char = 0 or char > n, else Chistov's
    any-characteristic route (§5).  Both routes draw the same randomness
    and return the same answers after the same number of attempts — the
    generator and det(P) are unique, and neither stage draws. *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module P : module type of Pipeline.Make (F) (C)
  module M = P.M
  module Pc = Kp_precond.Precond

  module O = Kp_robust.Outcome

  val charpoly_for_field : n:int -> P.charpoly_engine
  (** Leverrier engine if the characteristic allows, Chistov otherwise. *)

  type route =
    | Massey_elimination
        (** default: Berlekamp–Massey generator, det(P) by elimination *)
    | Toeplitz_charpoly
        (** the paper's §3/§4 route: Toeplitz charpoly generator and det(H)
            through its Toeplitz mirror's charpoly — the reference *)

  exception Linear_complexity_exceeds of int
  (** Raised by {!massey_generator} when the sequence's linear complexity
      exceeds n. *)

  exception Short_sequence of F.t array
  (** Raised by {!massey_generator} when the sequence's linear complexity
      L is below n, with the sequence's minimal generator g (monic, degree
      L, low-to-high). *)

  val massey_generator : n:int -> F.t array -> F.t array
  (** The degree-n monic generator (length n+1, low-to-high) of a 2n-term
      sequence by Berlekamp–Massey.  Linear complexity L < n (a singular
      n×n Hankel, where the Toeplitz route divides by zero) raises
      {!Short_sequence}; L > n, which no Krylov sequence of an n×n matrix
      has, raises {!Linear_complexity_exceeds}. *)

  val classify :
    ?fresh:(M.t -> F.t array -> bool) ->
    apply:(F.t array -> F.t array) ->
    p:P.precond ->
    n:int ->
    generate:(F.t array -> F.t array) ->
    (unit -> M.t * F.t array) ->
    (M.t * F.t array, ('a, F.t array) Kp_robust.Retry.attempt) result
  (** The rejection ladder every dense attempt runs on its generator
      stage.  [stage ()] returns (the Krylov columns Ãⁱ·v, the 2n-term
      sequence) and [generate] its degree-n generator f.  In order: no
      degree-n generator ({!Short_sequence}, or [Division_by_zero] from
      the Toeplitz route, which then runs Berlekamp–Massey on the
      sequence, drawing nothing) rejects [Low_degree]; L > n is a typed
      [Fault]; f must generate the whole sequence ([Low_degree]);
      [fresh cols f] must hold (a [Fault] otherwise).  A generator g with
      g(0) = 0, short or full, instead yields w = P·Σᵢ gᵢ·Ãⁱ⁻¹·v from the
      columns, checked by {!Las_vegas.Make.singular} against [apply],
      the input A's.  [Ok (cols, f)] when every check passes. *)

  val solve :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?precond:Pc.choice ->
    ?route:route ->
    Random.State.t -> M.t -> F.t array ->
    (F.t array * O.report, F.t array O.error) result
  (** Solve A·x = b.  [Ok (x, _)] comes with the certificate A·x = b
      checked; [Error (Singular _)] once an attempt's kernel vector checks
      against A.  [retries], [card_s] and [deadline_ns] are
      {!Las_vegas.Make.run}'s.  [pool] fans every matrix product of the
      attempt out as row blocks ({!Kp_matrix.Dense.Make.mul_parallel}) —
      bit-identical answers (here and on [det] alike).  [precond] picks
      the preconditioner kind ({!Kp_precond}): the default resolves to
      the dense Hankel·Diagonal; non-dense kinds demote to dense past the
      attempt-budget midpoint.  [route] picks the generator and det(P)
      stages (default {!Massey_elimination}). *)

  val det :
    ?retries:int ->
    ?strategy:P.strategy ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?precond:Pc.choice ->
    ?route:route ->
    Random.State.t -> M.t -> (F.t * O.report, F.t array O.error) result
  (** Determinant of A through {!Las_vegas.Make.det}: two fully
      independent evaluations must agree, and a [Singular] proof is
      reported as [Ok (F.zero, _)]. *)
end
