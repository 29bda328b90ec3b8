(** Field signatures.

    The paper's algorithms are algebraic circuits over an abstract field K.
    Two signatures capture this split:

    - {!FIELD_CORE} is the *straight-line* interface: ring operations,
      inversion and division, but deliberately {e no equality or zero test}.
      Every kernel of the Kaltofen–Pan pipeline (Krylov doubling, the
      Gohberg/Semencul Newton iteration, Leverrier, the final Cayley–Hamilton
      combination) is a functor over [FIELD_CORE], mirroring the paper's
      "our algorithms realize shallow algebraic circuits and thus have no
      zero-tests".  This is what allows the same code to be instantiated with
      a concrete field, an operation-counting field, or a circuit builder.

    - {!FIELD} extends it with the comparisons, printing and sampling needed
      by drivers, baselines (Gaussian elimination pivots on zero tests) and
      the Las Vegas verification wrappers. *)

module type FIELD_CORE = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t

  val inv : t -> t
  (** Multiplicative inverse.
      @raise Division_by_zero on the zero element (for concrete fields;
      a circuit builder records a division gate instead). *)

  val div : t -> t -> t

  val of_int : int -> t
  (** Canonical ring embedding of integers ([of_int n] = n·1).  Injective on
      [0, characteristic) when the characteristic is positive, injective on
      all of ℤ in characteristic 0. *)
end

(** Word-level kernel dispatch hint (see [Kp_kernel]).

    A concrete field may advertise that its runtime representation admits a
    specialized bulk-arithmetic backend: canonical GF(p) residues in a native
    [int] ([Gfp_word]) or 0/1 bits ([Gf2_bits]).  The GADT ties the claim to
    the representation type, so a dispatcher that matches [Gfp_word] learns
    [t = int] and can run unboxed int loops that are {e bit-identical} to the
    scalar operations.

    [Generic] promises nothing; the kernel layer then derives a
    reference backend from the field's own operations (same results, same
    operation counts).  Wrappers that intercept operations — the counting
    field, the fault injector — MUST declare [Generic], otherwise a
    specialized kernel would bypass the interception.

    Only {!FIELD} carries the hint.  {!FIELD_CORE} (the straight-line
    interface implemented by circuit builders) deliberately does not:
    circuit builders never see a kernel. *)
type _ kernel_hint =
  | Generic : _ kernel_hint
      (** No specialized backend; use the derived reference kernel. *)
  | Gfp_word : { p : int } -> int kernel_hint
      (** GF(p), p < 2{^30} prime, elements are canonical residues in
          [0, p) stored in a native [int]. *)
  | Gf2_bits : int kernel_hint
      (** GF(2), elements are 0 or 1 in a native [int]. *)

module type FIELD = sig
  include FIELD_CORE

  val equal : t -> t -> bool
  val is_zero : t -> bool

  val kernel_hint : t kernel_hint
  (** How the bulk-kernel layer may specialize hot loops over arrays of
      this field's elements; [Generic] when in doubt. *)

  val characteristic : int
  (** 0 for characteristic zero. *)

  val cardinality : int option
  (** [Some q] for a finite field with [q] elements when [q] fits in an
      [int], [None] for infinite fields (or huge extensions). *)

  val name : string

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  val random : Random.State.t -> t
  (** Uniform draw from a large canonical subset (the whole field when
      finite and word-sized). *)

  val sample : Random.State.t -> card_s:int -> t
  (** Uniform draw from a fixed subset S of the field with
      [min card_s cardinality] elements — the sample set of the paper's
      probability bound 3n²/card(S).  Implemented as [of_int] of a uniform
      integer, so the subset is {0, 1, …}. *)
end

(** Witness for passing fields as first-class modules. *)
type 'a field = (module FIELD with type t = 'a)
