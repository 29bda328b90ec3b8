(** Per-matrix solve sessions: cache the b-independent prefix of the
    black-box route, serve many solves/dets/inverses from it.

    Wiedemann's reduction (§2) splits at the right-hand side: the prepared
    operator A ({!Kp_matrix.Blackbox.Make.of_dense}), the preconditioner P
    of Ã = A·P with its network prepared, the degree-n generator f of
    {u·Ãⁱ·v} (the characteristic polynomial of Ã whp, from one projection
    pair) and det P are functions of A and the draws alone.  A session
    computes that prefix {e once} per matrix — through the certified
    {!Kp_core.Wiedemann.Make.precompute} retry loop, 2n − 1 applies of Ã
    on a first attempt — keys it by a {!Fingerprint.t}, and answers every
    later [solve] with n − 1 applies (Cayley–Hamilton on the cached f),
    x = P·y and the live check, and [det] as (−1)ⁿ·f(0)/det P.  An entry
    holds O(n²) field elements: the prepared A, plus O(n log n) for the
    network and O(n) for f.

    {b Cache validity is never assumed.}  Every served answer re-runs its
    certificate against the live input: solves check A·x = b on the matrix
    passed in (never on the cached operator), determinants compare the
    cached value against one fresh independent evaluation (the
    two-evaluation discipline, with the cache as one of the evaluations),
    and a cached singular verdict re-checks its kernel vector (A·w = 0).
    A failed certificate is a {!Kp_robust.Outcome.Stale_cache} rejection:
    the entry is evicted ([session.cache.evict]) and rebuilt from scratch
    — a poisoned record costs retries, never a wrong or silently-reused
    answer.  Once the rebuild budget is spent, a solve falls back to a
    fresh {!Kp_core.Wiedemann.Make.solve_preconditioned} and a det to a
    fresh {!Kp_core.Wiedemann.Make.det}.

    Determinism: per-RHS random states are pre-split off the session state
    in argument order, so results are a function of the session's history
    alone — identical for any pool size.  On success paths the answers
    are moreover equal to fresh solver answers by uniqueness (x = A⁻¹b is
    one point); a [Singular] verdict carries its checked kernel vector.

    Sessions are single-owner: call them from one domain (the pool is used
    {e inside} a call, the session itself is not thread-safe). *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  module M : module type of Kp_matrix.Dense.Make (F)
  module O = Kp_robust.Outcome

  type t

  type stats = {
    hits : int;  (** lookups served from a cached entry *)
    misses : int;  (** lookups that triggered a build *)
    evictions : int;  (** entries discarded after a failed certificate *)
    capacity_evictions : int;
        (** least-recently-used entries dropped to respect [max_entries] —
            pure bookkeeping, no staleness implied
            ([session.cache.evict_capacity]) *)
  }

  val create :
    ?retries:int ->
    ?card_s:int ->
    ?deadline_ns:int64 ->
    ?pool:Kp_util.Pool.t ->
    ?max_entries:int ->
    ?precond:Kp_precond.Precond.choice ->
    Random.State.t -> t
  (** A fresh empty session.  The options are the usual solver knobs,
      applied to every build and serve made through the session; [st] is
      the session's random state (builds and per-RHS repair states split
      off it).

      [max_entries] (default 64) bounds the per-session cache: inserting
      past the bound evicts the least-recently-used entry (an entry holds
      the prepared A — O(n²) field elements — so an unbounded cache across
      distinct matrices is a leak).

      [pool] fans a batch's right-hand sides out across its domains, each
      serve on its own composition of Ã.
      A serve draws nothing, so cached entries, fingerprints and served
      answers do not depend on the pool — only the schedule moves.

      [precond] selects the preconditioner kind for every build and serve
      (default {!Kp_precond.Precond.Auto}, which resolves to the sparse
      butterfly here, as for any black box).  The
      resolved kind is part of every cache key (fingerprint schema v2) and
      is re-validated on each serve: an entry recorded under another kind
      is a typed [Stale_cache] — evicted and rebuilt, never silently
      reused.
      @raise Invalid_argument if [max_entries] < 1. *)

  val fingerprint : M.t -> Fingerprint.t
  (** The untagged content fingerprint: field name, dimensions, FNV-1a over
      the entries (the residues themselves on a word-sized GF(p) or GF(2)
      field, {!Fingerprint.of_ints}; the rendered entries otherwise).  Session lookups additionally tag it with the
      resolved preconditioner kind (schema v2), so entries built under
      different kinds occupy different cache slots. *)

  val fingerprint_of : ?key:string -> t -> M.t -> Fingerprint.t
  (** The session's actual cache key for [a] (or for caller key [key]):
      {!fingerprint} tagged with the session's resolved preconditioner
      kind.  Two sessions forcing different kinds produce unequal keys for
      the same matrix — cross-kind lookups are structural misses. *)

  val stats : t -> stats

  val solve :
    ?key:string ->
    ?deadline_ns:int64 ->
    t -> M.t -> F.t array -> (F.t array * O.report, F.t array O.error) result
  (** [solve_many] on a single right-hand side. *)

  val solve_many :
    ?key:string ->
    ?deadline_ns:int64 ->
    t -> M.t -> F.t array array ->
    (F.t array * O.report, F.t array O.error) result array
  (** Solve A·xᵢ = bᵢ for a batch of right-hand sides against one cached
      prefix (built on first use): n − 1 applies of Ã each.  The per-RHS serves fan out on
      the session pool; each is certified (A·x = b) before being returned.
      Stale entries are evicted and rebuilt mid-batch (bounded by
      [retries]); as a last resort a right-hand side falls back to a
      certified fresh black-box solve with its pre-split state.  Reports carry any
      [Stale_cache] rejections.  [?key] names the matrix instead of
      hashing it — the caller asserts identity, the certificates still
      check it (a re-bound [Singular] entry fails A·w = 0 and is rebuilt).
      [?deadline_ns] overrides the session's configured deadline
      for this call alone (absolute, monotonic): a serving layer admits
      each request with its own budget and the builds/serves/fallbacks made
      on its behalf all ride the per-request deadline through the PR-2
      retry engine. *)

  val det :
    ?key:string -> ?deadline_ns:int64 ->
    t -> M.t -> (F.t * O.report, F.t array O.error) result
  (** det(A) = (−1)ⁿ·f(0)/det P from the cached prefix.  First serve per
      entry cross-checks against one fresh independent evaluation (a
      second {!Kp_core.Wiedemann.Make.precompute}) — agreement certifies
      the cache (later serves are free), disagreement evicts and rebuilds.
      Singular inputs report [Ok (F.zero, _)] exactly as
      {!Kp_core.Wiedemann.Make.det} does. *)

  val inverse :
    ?key:string -> ?deadline_ns:int64 ->
    t -> M.t -> (M.t * O.report, F.t array O.error) result
  (** A⁻¹ as n cached-prefix column solves (so the generator is still
      computed once per matrix, not n times), assembled with
      {!Kp_core.Inverse.Make.merge_columns}.  [Error (Singular _)] on
      singular inputs. *)

  val poison_charpoly :
    ?key:string -> t -> M.t -> (F.t array -> F.t array) -> bool
  (** {b Fault-injection hook for tests}: destructively replace the cached
      generator of the entry for this matrix (and drop its determinant
      certification), returning [false] if nothing is cached.  Lets the
      chaos suite plant a corrupted generator and assert it is detected,
      evicted and never served. *)

  val poison_kind :
    ?key:string -> t -> M.t -> Kp_precond.Precond.kind -> bool
  (** {b Fault-injection hook for tests}: overwrite the preconditioner kind
      recorded on the cached entry for this matrix (simulating a cross-kind
      certificate leaking into the cache), returning [false] if nothing is
      cached.  The next serve must detect the mismatch as a typed
      [Stale_cache], evict and rebuild. *)
end
