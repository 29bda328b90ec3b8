(** Matrix fingerprints — the cache key of a solve session.

    A fingerprint commits to the dimensions, the field (by name: GF(97)
    and GF(998244353) share [int] as their representation, so the type
    alone cannot distinguish them), an opaque schema tag (the session layer
    stores the preconditioner kind there — schema v2) and the matrix
    content, the latter via a cheap rolling hash (64-bit FNV-1a) over the
    rendered entries of the black box's defining data.  Callers that
    already know the identity of their operator can skip the O(n²) hash
    with an explicit key.

    A hash collision serves a wrong precomputation — which the session
    layer's per-answer certificates then catch (residual check, det
    cross-evaluation), evict and rebuild, so a collision costs retries,
    never a wrong answer. *)

type t

val of_entries :
  ?tag:string ->
  field:string -> rows:int -> cols:int ->
  to_string:('a -> string) -> 'a array -> t
(** Fingerprint from the defining data (row-major entries for a dense
    matrix), hashing each entry's canonical rendering.  [tag] (default
    [""]) joins the identity verbatim: two fingerprints with different
    tags never compare equal. *)

val of_ints :
  ?tag:string -> field:string -> rows:int -> cols:int -> int array -> t
(** {!of_entries} for a field whose elements are their own canonical
    [int] residues (the word-sized GF(p) and GF(2) fields): each residue
    folds into the hash as it is, with no rendering.  Use one of the two
    per field, so equal matrices always hash alike. *)

val of_key : ?tag:string -> field:string -> rows:int -> cols:int -> string -> t
(** Caller-supplied identity: no content hash, the key string is the
    identity.  Distinct from every [of_entries] fingerprint. *)

val tag : t -> string

val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string
