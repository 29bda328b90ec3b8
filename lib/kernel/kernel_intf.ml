(** Bulk vector-kernel interface.

    A [KERNEL] packages the allocation-free hot loops of the Theorem-4
    pipeline — inner products, AXPY updates, pointwise maps, dense
    matrix-vector and matrix-matrix products — over arrays of one field's
    elements.  Two families of implementations exist:

    - {!Derived.Make} builds a kernel from any {!Kp_field.Field_intf.FIELD_CORE}
      by replaying exactly the scalar operation patterns the call sites used
      before the kernel layer existed.  Same results, same operation counts:
      counting fields, fault-injecting wrappers and circuit builders all go
      through this path.

    - The C-stub backends ({!Gfp_cstub}, {!Gf2_cstub}) exploit a concrete
      word-level representation (advertised by the field through
      {!Kp_field.Field_intf.kernel_hint}): autovectorizable C loops with
      delayed modular reduction or bit packing, and Bigarray reduction
      scratch.  Each is required to be {e bit-identical} to the derived
      kernel on canonical inputs; {!Dispatch} picks one per hint.

    Conventions shared by every primitive:
    - offsets/ranges are trusted (bounds are the caller's contract);
    - [_into] primitives write their destination and allocate nothing
      proportional to the input size;
    - accumulating primitives ([matmul_into]) require the destination range
      to hold canonical field elements on entry (e.g. freshly zero-filled). *)

module type KERNEL = sig
  type t

  val backend : string
  (** One of ["derived"], ["gfp_cstub"], ["gf2_cstub"] — also the suffix of
      the [kernel.<backend>] hit counter. *)

  val dot : t array -> t array -> t
  (** Inner product of equal-length arrays, balanced-reduction order
      (matches [Vec.dot]).  Returns zero on empty input. *)

  val dot_gather : vals:t array -> cols:int array -> lo:int -> hi:int -> x:t array -> t
  (** Σ_{lo ≤ k < hi} [vals.(k) · x.(cols.(k))], sequential accumulation from
      zero — the CSR sparse-row product (matches [Sparse.matvec]'s row loop). *)

  val axpy_into : a:t -> x:t array -> xoff:int -> y:t array -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- y.(yoff+i) + a·x.(xoff+i)] for [0 ≤ i < len] — the
      schoolbook convolution leaf and the vector AXPY. *)

  val scale_into : a:t -> x:t array -> xoff:int -> dst:t array -> doff:int -> len:int -> unit
  (** [dst.(doff+i) <- a·x.(xoff+i)].  [dst] may alias [x]. *)

  val add_into : x:t array -> xoff:int -> y:t array -> yoff:int -> dst:t array -> doff:int -> len:int -> unit
  (** [dst.(doff+i) <- x.(xoff+i) + y.(yoff+i)].  [dst] may alias either. *)

  val sub_into : x:t array -> xoff:int -> y:t array -> yoff:int -> dst:t array -> doff:int -> len:int -> unit
  (** [dst.(doff+i) <- x.(xoff+i) - y.(yoff+i)].  [dst] may alias either. *)

  val pointwise_mul_into : x:t array -> xoff:int -> y:t array -> yoff:int -> dst:t array -> doff:int -> len:int -> unit
  (** [dst.(doff+i) <- x.(xoff+i) · y.(yoff+i)] — the NTT pointwise stage.
      [dst] may alias either. *)

  val matvec_into : m:t array -> cols:int -> row_lo:int -> row_hi:int -> x:t array -> dst:t array -> unit
  (** [dst.(i) <- Σ_j m.(i·cols + j) · x.(j)] for [row_lo ≤ i < row_hi],
      sequential accumulation from zero per row (matches the concrete
      [Dense.Make.matvec]).  Row-ranged so pools can chunk it. *)

  val matmul_into : a:t array -> b:t array -> dst:t array -> inner:int -> bcols:int -> row_lo:int -> row_hi:int -> unit
  (** Classical i,k,j product restricted to rows [row_lo ≤ i < row_hi]:
      [dst.(i·bcols + j) <- dst.(i·bcols + j) + a.(i·inner + k) · b.(k·bcols + j)]
      (matches the concrete [Dense.Make.mul]).  [dst] rows must hold
      canonical elements on entry — normally freshly zero-filled. *)
end

(** Witness for passing kernels as first-class modules. *)
type 'a kernel = (module KERNEL with type t = 'a)
