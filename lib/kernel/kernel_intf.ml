(** Bulk vector-kernel interface.

    A [KERNEL] packages the allocation-free hot loops of the Theorem-4
    pipeline and of the black-box route — inner products, AXPY updates,
    pointwise maps, dense and CSR matrix-vector products, prepared dense
    and sparse operators and butterfly networks, and matrix-matrix
    products — over arrays of one field's elements.  Two families of implementations
    exist:

    - {!Derived.Make} builds a kernel from any {!Kp_field.Field_intf.FIELD_CORE}
      by replaying exactly the scalar operation patterns the call sites used
      before the kernel layer existed.  Same results, same operation counts:
      counting fields, fault-injecting wrappers and circuit builders all go
      through this path.

    - The C-stub backends ({!Gfp_cstub}, {!Gf2_cstub}) exploit a concrete
      word-level representation (advertised by the field through
      {!Kp_field.Field_intf.kernel_hint}): autovectorizable C loops with
      delayed, division-free modular reduction or bit packing, and
      Bigarray reduction scratch.  Each is required to be
      {e bit-identical} to the derived kernel on canonical inputs;
      {!Dispatch} picks one per hint.

    Conventions shared by every primitive:
    - offsets/ranges are trusted (bounds are the caller's contract);
    - [_into] primitives write their destination and allocate nothing
      proportional to the input size;
    - accumulating primitives ([matmul_into]) require the destination range
      to hold canonical field elements on entry (e.g. freshly zero-filled). *)

(** One butterfly exchange layer of stride [stride] = s ≥ 1 over n
    coordinates.  Its pairs are (i, i+s) for [blk ≤ i < min (blk+s) (n−s)]
    over the block starts [blk = 0, 2s, 4s, …]; pair number k, counted in
    that order, has the 2×2 block [[a.(k) b.(k)]; [c.(k) dd.(k)]].  The
    coefficient arrays hold at least {!butterfly_pairs} entries. *)
type 'a butterfly_layer = {
  stride : int;
  a : 'a array;
  b : 'a array;
  c : 'a array;
  dd : 'a array;
}

module type KERNEL = sig
  type t

  type dense
  (** A rows×cols matrix prepared for repeated products. *)

  type csr
  (** A sparse matrix prepared for repeated products. *)

  type butterfly
  (** A butterfly network P = L_m·…·L_1·D prepared for repeated applies:
      a diagonal d over n = [Array.length d] coordinates, then the layers
      L_1, …, L_m in array order. *)

  val backend : string
  (** One of ["derived"], ["gfp_cstub"], ["gf2_cstub"] — also the suffix of
      the [kernel.<backend>] hit counter. *)

  val dot : t array -> t array -> t
  (** Inner product of equal-length arrays, balanced-reduction order
      (matches [Vec.dot]).  Returns zero on empty input. *)

  val dot_acc : init:t -> x:t array -> xoff:int -> y:t array -> yoff:int -> len:int -> t
  (** [init + Σ_j x.(xoff+j)·y.(yoff+j)] over [0 ≤ j < len], accumulated
      in order onto [init] — Berlekamp–Massey's discrepancy and the
      generator window check.  Returns [init] when [len = 0]. *)

  val csr_matvec_into :
    row_ptr:int array -> cols:int array -> vals:t array -> row_lo:int ->
    row_hi:int -> x:t array -> dst:t array -> unit
  (** CSR sparse product over rows [row_lo ≤ i < row_hi]:
      [dst.(i) <- Σ vals.(k) · x.(cols.(k))] over
      [row_ptr.(i) ≤ k < row_ptr.(i+1)], sequential accumulation from zero
      per row (matches the historical [Sparse.matvec] row loop).  Rows
      outside the range are left untouched, so a caller can split the
      product into disjoint row ranges. *)

  val csr_prepare : row_ptr:int array -> cols:int array -> vals:t array -> csr
  (** The CSR matrix of [Array.length row_ptr − 1] rows, in the layout of
      {!csr_matvec_into}, built once per black box.  A backend may keep
      references to the arrays or copy them into its own layout, so they
      must not change afterwards. *)

  val csr_apply_into : csr -> src:t array -> dst:t array -> unit
  (** {!csr_matvec_into} over all rows: [dst.(i) <- Σ vals.(k) ·
      src.(cols.(k))] for every row i.  [dst] holds at least the row
      count and must not alias [src].  A one-off product is cheaper
      through {!csr_matvec_into}, which copies nothing. *)

  val dense_prepare : rows:int -> cols:int -> t array -> dense
  (** [dense_prepare ~rows ~cols m], [m] row-major with [rows·cols]
      entries, built once per black box.  A backend may keep a reference
      to [m] or copy it into its own layout, so [m] must not change
      afterwards. *)

  val dense_apply_into : dense -> src:t array -> dst:t array -> unit
  (** [dst.(i) <- Σ_j m.(i·cols + j) · src.(j)] for [0 ≤ i < rows], with
      the row semantics of {!matvec_into}; [src] holds [cols] entries,
      [dst] at least [rows], and [dst] must not alias [src].  A one-off
      product is cheaper through {!matvec_into}, which copies nothing. *)

  val butterfly_prepare : d:t array -> layers:t butterfly_layer array -> butterfly
  (** The network of [d] and [layers], built once per preconditioner.  A
      backend may keep references to the arrays or copy them into its own
      layout, so they must not change afterwards. *)

  val butterfly_apply_into :
    butterfly -> transpose:bool -> src:t array -> dst:t array -> unit
  (** P·src (or Pᵀ·src) into [dst], which must not alias [src]; both hold
      n entries.  With u = w.(i) and v = w.(i+s) read before either write,
      a layer applied in place on w sets
      - forward:    [w.(i) <- a·u + b·v], [w.(i+s) <- c·u + dd·v];
      - transposed: [w.(i) <- a·u + c·v], [w.(i+s) <- b·u + dd·v].
      Forward: [dst <- d∘src], then layers 1…m in place.  Transposed:
      [dst <- src], then layers m…1 transposed, then [dst <- d∘dst]. *)

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
      [Dense.Make.matvec]).  Row-ranged so pools can chunk it.  [dst] must
      alias neither [m] nor [x]: a backend may write a row after reading
      later rows. *)

  val matmul_into : a:t array -> b:t array -> dst:t array -> inner:int -> bcols:int -> row_lo:int -> row_hi:int -> unit
  (** Classical i,k,j product restricted to rows [row_lo ≤ i < row_hi]:
      [dst.(i·bcols + j) <- dst.(i·bcols + j) + a.(i·inner + k) · b.(k·bcols + j)]
      (matches the concrete [Dense.Make.mul]).  [dst] rows must hold
      canonical elements on entry — normally freshly zero-filled. *)
end

(** Witness for passing kernels as first-class modules. *)
type 'a kernel = (module KERNEL with type t = 'a)

(** Number of pairs in one stride-[stride] butterfly layer over n
    coordinates — the length of that layer's coefficient arrays: [s] per
    full block of width 2s, plus the part of a ragged last block that
    still has a partner. *)
let butterfly_pairs ~n ~stride =
  let full = n / (2 * stride) and rest = n mod (2 * stride) in
  (full * stride) + max 0 (rest - stride)
