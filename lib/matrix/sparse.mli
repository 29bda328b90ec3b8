(** Sparse matrices in compressed-sparse-row form.

    Wiedemann's method (§2 of the paper) was designed for sparse matrices:
    the only access it needs is v ↦ Av.  This module provides that black-box
    cheaply, plus generators for the sparse workloads of experiment E9. *)

module Make (F : Kp_field.Field_intf.FIELD) : sig
  type t

  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int

  val csr : t -> int array * int array * F.t array
  (** [(row_ptr, col_idx, values)] — the CSR arrays themselves, {e not}
      copies: row [i] occupies [row_ptr.(i) ≤ k < row_ptr.(i+1)] of
      [col_idx]/[values].  Callers must treat them as read-only. *)

  val of_triplets : rows:int -> cols:int -> (int * int * F.t) list -> t
  (** Duplicate coordinates are summed; explicit zeros are dropped. *)

  val to_dense : t -> Dense.Make(F).t
  val of_dense : Dense.Make(F).t -> t

  val get : t -> int -> int -> F.t

  val matvec : t -> F.t array -> F.t array
  (** [a·v] in a fresh array, by one kernel [csr_matvec_into]: the
      one-off product.  A black box that applies A repeatedly prepares
      it once ({!Blackbox.Make.of_sparse}). *)

  val matvec_transpose : t -> F.t array -> F.t array

  val random : Random.State.t -> int -> int -> density:float -> t
  (** Each entry present independently with probability [density], value
      uniform nonzero. *)

  val random_nonsingular : Random.State.t -> int -> density:float -> t
  (** Guaranteed non-singular sparse matrix: a random row permutation of
      [D + N] with [D] an invertible diagonal and [N] strictly upper
      triangular with the requested density. *)
end
