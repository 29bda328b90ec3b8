(** First-class preconditioners.

    The paper's Theorem 2 conditions A with a right factor P so that the
    leading principal minors of Ã = A·P are generically non-zero and the
    minimal generator of {u·Ãⁱ·v} reaches full degree.  Historically P was
    hard-wired as the dense Hankel·Diagonal throughout the stack; this
    module makes the preconditioner a value.

    Three kinds live behind the {!Make.build} registry:

    - {!Dense_hd}: the paper's H·D.  When selected, every consumer is
      bit-identical to the pre-refactor code — same RNG draw order (h then
      d), same arithmetic operation order, same op counts under a counting
      field.
    - {!Sparse_butterfly}: ⌈log₂ n⌉ exchange layers of determinant-1 2×2
      blocks over a non-zero diagonal (Eberly's sparse-preconditioner
      analysis, arXiv:1607.04514).  O(n log n) field ops per apply, so a
      sparse black box stays sparse end to end.
    - {!Ext_field}: the butterfly with GF(q^k) chunk scalars for tiny base
      fields — card(S) escalation routes through the extension (up to q^8)
      instead of stalling at the field cardinality.

    Correctness never depends on the kind: every consumer certifies its
    answers (residual check, generator certificates, two-evaluation det),
    so a structurally weaker preconditioner costs retries, not wrong
    answers.  The retry contract is {!kind_for_attempt} (late attempts
    demote to dense) plus {!escalation_ceiling} (the |S| clamp handed
    to the retry engine's policy). *)

type kind = Dense_hd | Sparse_butterfly | Ext_field

type choice = Auto | Forced of kind
(** [Auto] resolves per input shape (dense inputs take [Dense_hd], sparse
    black boxes take [Sparse_butterfly]); [Forced] pins the kind. *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable tag — used in fingerprints, counters and the CLI ([dense],
    [sparse], [ext]).  Renaming one invalidates session caches. *)

val kind_of_string : string -> kind option
val choice_name : choice -> string
val choice_of_string : string -> choice option
val describe : kind -> string

val default_choice : unit -> choice
(** [Auto], unless the [KP_PRECOND] environment variable names a valid
    choice. *)

val resolve : ?sparse:bool -> choice -> kind
(** Resolve [Auto] for an input: [~sparse:true] marks a sparse/black-box
    operand (default dense). *)

val escalation_ceiling :
  cardinality:int option -> characteristic:int -> kind -> int option
(** The |S| clamp for the retry policy over a field of the given
    cardinality and characteristic: the cardinality, except [Ext_field]
    over a prime field, which escalates to q^8 ([None] means
    unclamped). *)

val kind_for_attempt : retries:int -> attempt:int -> kind -> kind
(** The retry-escalation contract: a non-dense kind keeps its identity for
    the first half of the attempt budget and demotes to [Dense_hd] after
    the midpoint (counted by [precond.demote]).  [attempt] is the retry
    engine's 1-based index. *)

type 'a t = {
  kind : kind;
  n : int;
  apply : 'a array -> 'a array;
      (** v ↦ P·v.  Composing a black box A with this gives Ã = A·P; the
          recovery step x = P·x̃ is this same map. *)
  apply_into : 'a array -> 'a array -> unit;
      (** [apply_into src dst] writes P·src into [dst], which must not be
          [src] — the map the black-box iteration composes.  The butterfly
          kinds apply the kernel network they prepared at build time, one
          kernel call per apply; the dense H·D and the chunked extension
          kind copy [apply]'s result out. *)
  apply_transpose : 'a array -> 'a array;
      (** v ↦ Pᵀ·v (for transposed black-box composition). *)
  dense : unit -> 'a array;
      (** Row-major n×n materialisation of P (the dense pipeline's matrix
          product path). *)
  det : unit -> 'a;
      (** det P, with fresh arithmetic on every call — the two-evaluation
          det discipline depends on recomputation. *)
  ops_per_apply : int Lazy.t;
      (** Field operations of one [apply] (forced only by consumers that
          instrument applies). *)
}

(** The straight-line layer: dense Hankel·Diagonal records from explicit
    random entries, usable from circuit builders and counting fields (no
    zero tests, no RNG). *)
module Core
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  type charpoly_engine = n:int -> F.t array -> F.t array

  type det_routine = n:int -> h:F.t array -> d:F.t array -> F.t
  (** det(H)·det(D) from the Hankel entries h and the diagonal d. *)

  val balanced_product : F.t array -> int -> int -> F.t

  val det_hd : charpoly:charpoly_engine -> det_routine
  (** det(H)·det(D): Hankel determinant via its Toeplitz mirror's
      characteristic polynomial (§4), diagonal determinant as a balanced
      product.  Straight-line, so circuit builders can trace it. *)

  val hankel_diag :
    ?ops_per_apply:int Lazy.t ->
    det:det_routine ->
    n:int -> h:F.t array -> d:F.t array -> unit -> F.t t
  (** P = H·D from the 2n-1 Hankel entries and the n diagonal entries.
      Bit-identical to the code it replaced: [dense ()] materialises in
      [Dense.Core.init] element order, [apply] scales then Hankel-matvecs
      in the legacy order.  [det ()] runs [det] on the entries. *)
end

(** The full layer: random builders for every kind. *)
module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) : sig
  include module type of Core (F) (C)

  val hankel_ops_per_apply : int -> int
  (** Field ops of one n-dimensional Hankel matvec, measured once per n
      through a counting field and cached. *)

  val sample_nonzero : Random.State.t -> card_s:int -> F.t
  (** The legacy non-zero draw: at most 100 samples, then [F.one]. *)

  val butterfly_layer :
    card_s:int -> n:int -> Random.State.t -> int ->
    F.t Kp_kernel.Kernel_intf.butterfly_layer
  (** [butterfly_layer ~card_s ~n st s]: the stride-[s] exchange layer
      of {!Sparse_butterfly}, drawn as {!build} draws it — per pair, in
      pair order, a (by {!sample_nonzero}), b and c — with every
      dd = (1 + b·c)/a computed from one [F.inv] per layer. *)

  val det_hd_elimination : det_routine
  (** det(H)·det(D) with det(H) by Gaussian elimination on the
      materialised Hankel (O(n³) sequential work, no charpoly).  Equal to
      {!det_hd} on every input; runs under the [pipeline.det_hd] span. *)

  val build :
    ?charpoly:charpoly_engine ->
    ?det_hd:det_routine ->
    card_s:int -> n:int -> kind -> Random.State.t -> F.t t
  (** Draw a fresh preconditioner of the given kind from the RNG.
      [Dense_hd] reproduces the legacy draw stream exactly (h then d, with
      the ≤100-retry non-zero diagonal discipline); its [det] runs
      [det_hd] (default {!det_hd_elimination}) with fresh arithmetic on
      every call.  [charpoly] is ignored and kept only for source
      compatibility.  Each build ticks its [precond.build.<kind>]
      counter. *)
end
