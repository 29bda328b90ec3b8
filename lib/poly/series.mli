(** Truncated power series — the straight-line polynomial kernel.

    Everything here is a functor over {!Kp_field.Field_intf.FIELD_CORE}:
    {e no zero tests, no normalization}.  A series truncated mod x{^n} is a
    plain coefficient array of length exactly [n]; the operation sequence
    performed depends only on the lengths, never on the values, so tracing
    these functions with a circuit-builder field yields the oblivious
    algebraic circuits whose size and depth the paper bounds.

    Divisions occur only where the paper divides: [inv] divides by the
    constant term, [integrate]/[log]/[exp] divide by 1..n-1 (the
    characteristic-0-or-large restriction of Leverrier/Csanky).

    Bulk coefficient loops (the schoolbook convolution leaf, the Karatsuba
    recombination, elementwise add/sub/scale) run on a
    {!Kp_kernel.Kernel_intf.KERNEL}.  {!Make} plugs in the derived kernel —
    operation stream identical to the historical scalar loops — while
    {!Make_k} accepts a specialized backend (see {!Conv.Karatsuba_field}). *)

module type S = sig
  type elt
  type t = elt array

  val make : int -> t
  (** [make n] is the zero series mod x{^n}. *)

  val of_array : int -> elt array -> t
  (** Truncate or zero-pad to length [n]. *)

  val truncate : int -> t -> t

  val one : int -> t
  val constant : int -> elt -> t

  val add : t -> t -> t
  (** Lengths must agree (checked). *)

  val sub : t -> t -> t
  val neg : t -> t
  val scale : elt -> t -> t

  val mul_full : elt array -> elt array -> elt array
  (** Full product, length la+lb-1 (empty if either is empty); Karatsuba
      above a threshold.  Oblivious: multiplies zero coefficients too. *)

  val mul : t -> t -> t
  (** Truncated product mod x{^len} where [len] is the common length. *)

  val inv : t -> t
  (** Newton iteration; one field inversion (of the constant term) and
      multiplications only.  Result length = argument length. *)

  val div : t -> t -> t
  (** [mul a (inv b)]. *)

  val derivative : t -> t
  (** Length shrinks by one (length max 1). *)

  val integrate : t -> t
  (** Antiderivative with zero constant term, length grows by one.
      Divides by 2..n — requires characteristic 0 or > n. *)

  val log : t -> t
  (** [log f] for f with constant term 1 (not checked — a straight-line
      program cannot check); same length. *)

  val exp : t -> t
  (** [exp f] for f with zero constant term; same length.  Newton iteration
      via [log]. *)

  val eval : t -> elt -> elt
end

module Make_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) :
  S with type elt = F.t

module Make (F : Kp_field.Field_intf.FIELD_CORE) : S with type elt = F.t
