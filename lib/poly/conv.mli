(** Pluggable polynomial multiplication.

    The paper treats both matrix multiplication and polynomial multiplication
    (Cantor–Kaltofen) as black boxes whose cost parameterises the final
    bounds.  Algorithms in [kp_structured]/[kp_core] take an {!S} module so
    the experiments can swap multipliers:

    - {!Karatsuba}: field-independent, O(n^{log₂3});
    - {!Ntt_generic}: O(n log n) over any field that *is semantically*
      GF(p) for an NTT-friendly prime p (including its counting and circuit
      wrappers — the butterfly plan is computed on plain ints and lifted
      through [of_int], so tracing it yields the genuine O(log n)-depth
      multiplication circuit).

    Both run sequentially: a product's parallel time is the depth of its
    traced circuit. *)

module type S = sig
  type elt

  val mul_full : elt array -> elt array -> elt array
  (** Full product, length la+lb-1 ([[||]] if either input is empty). *)
end

module Karatsuba_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) :
  S with type elt = F.t
(** Karatsuba with its leaf products and recombination passes running on an
    explicit bulk kernel. *)

module Karatsuba (F : Kp_field.Field_intf.FIELD_CORE) : S with type elt = F.t
(** [Karatsuba_k] over the derived (operation-faithful) kernel — the
    historical behaviour, safe for counting fields and circuit builders. *)

module Karatsuba_field (F : Kp_field.Field_intf.FIELD) : S with type elt = F.t
(** [Karatsuba_k] over the kernel dispatched from [F.kernel_hint] — word-level
    unboxed leaves for GF(p)/GF(2) representations. *)

module type NTT_PRIME = sig
  val p : int
  (** NTT-friendly prime: p = c·2{^k} + 1. *)

  val root : int
  (** A primitive root mod p. *)

  val max_log2 : int
  (** Largest usable power-of-two order k. *)
end

module Default_ntt_prime : NTT_PRIME
(** 998244353 / root 3 / 2{^23} — matches {!Kp_field.Fields.Gf_ntt}. *)

module Ntt_generic_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t)
    (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** Number of transform lengths whose lifted root tables are currently
      retained.  The cache is bounded (LRU past 8 lengths), so this never
      exceeds 8 — the PR-6 leak fix for long-running mixed-size use. *)

  (** NTT whose butterfly levels, pointwise stage and inverse scaling run as
      bulk kernel passes.  Falls back to (kernel-backed) Karatsuba when the
      product is too long for the root order. *)
end

module Ntt_generic
    (F : Kp_field.Field_intf.FIELD_CORE)
    (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** See {!Ntt_generic_k}. *)

  (** [Ntt_generic_k] over the derived kernel; falls back to Karatsuba when
      the product is too long for the root order. *)
end

module Ntt_field (F : Kp_field.Field_intf.FIELD) (P : NTT_PRIME) : sig
  include S with type elt = F.t

  val root_tables_cached : unit -> int
  (** See {!Ntt_generic_k}. *)

  (** [Ntt_generic_k] over the kernel dispatched from [F.kernel_hint]. *)
end
