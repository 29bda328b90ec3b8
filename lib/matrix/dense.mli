(** Dense matrices.

    {!Core} is the straight-line arithmetic layer over
    {!Kp_field.Field_intf.FIELD_CORE} (no zero tests — the op sequence of
    every product depends only on the dimensions, so it can be traced into
    circuits and counted).  {!Make} extends it for a full
    {!Kp_field.Field_intf.FIELD} with equality, printing and random
    generation.

    The paper uses matrix multiplication as a black box; [mul] (classical,
    O(n³)) and [mul_strassen] (O(n^2.81)) are the two instantiations, and
    [mul_parallel] runs the classical product on a domain pool.

    {!Make} routes [mul], [matvec] and [mul_parallel] through the bulk
    kernel selected by [F.kernel_hint] (see {!Kp_kernel.Dispatch}): unboxed
    word-level loops for GF(p)/GF(2) representations, the derived
    operation-faithful kernel otherwise.  Results are bit-identical to the
    scalar i,k,j loops these calls replaced.  {!Core} keeps the
    balanced-reduction implementations for circuit builders. *)

module Core (F : Kp_field.Field_intf.FIELD_CORE) : sig
  type t = { rows : int; cols : int; data : F.t array }
  (** Row-major; [data.(i*cols + j)] is row i, column j. *)

  val make : int -> int -> t
  (** Zero matrix. *)

  val init : int -> int -> (int -> int -> F.t) -> t
  val identity : int -> t
  val get : t -> int -> int -> F.t
  val set : t -> int -> int -> F.t -> unit
  val copy : t -> t
  val of_arrays : F.t array array -> t
  val to_arrays : t -> F.t array array
  val row : t -> int -> F.t array
  val col : t -> int -> F.t array

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : F.t -> t -> t
  val transpose : t -> t

  val mul : t -> t -> t
  (** Classical product (i,k,j loop order). *)

  val mul_strassen : ?cutoff:int -> t -> t -> t
  (** Strassen with classical base case below [cutoff] (default 64).
      Requires square matrices of equal size. *)

  val matvec : t -> F.t array -> F.t array
  val vecmat : F.t array -> t -> F.t array
  (** Row vector times matrix. *)

  val diag : F.t array -> t

  val map : (F.t -> F.t) -> t -> t
end

module Make (F : Kp_field.Field_intf.FIELD) : sig
  include module type of Core (F)

  val equal : t -> t -> bool
  val is_zero : t -> bool
  val random : Random.State.t -> int -> int -> t
  val sample : Random.State.t -> card_s:int -> int -> int -> t
  (** Entries drawn from the size-[card_s] sample set. *)

  val random_nonsingular : Random.State.t -> int -> t
  (** Rejection sampling against a singularity check (unit lower × unit
      upper triangular products, always non-singular). *)

  val sample_nonsingular : Random.State.t -> card_s:int -> int -> t
  (** Non-singular (unit lower × unit upper triangular, determinant 1)
      with off-diagonal entries from the size-[card_s] sample set — the
      preconditioner form whose genericity estimate (2) is stated in. *)

  val random_of_rank : Random.State.t -> int -> rank:int -> t
  (** [n×n] matrix of the exact given rank. *)

  val matvec_into : t -> F.t array -> F.t array -> unit
  (** [matvec_into m v dst] writes [m·v] into [dst] (length [rows]) without
      allocating — the kernel-backed primitive behind [matvec].  [dst] must
      not be [v] or [m]'s data. *)

  val mul_parallel : Kp_util.Pool.t -> t -> t -> t
  (** Classical product with row-disjoint chunks distributed over the pool,
      each chunk one bulk kernel call; bit-identical to [mul]. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
