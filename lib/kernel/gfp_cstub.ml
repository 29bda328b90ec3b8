(** C-stub GF(p) kernel: division-free word loops compiled as
    autovectorizable C ([kp_kernel_stubs.c]).  [dot], [dot_acc],
    [matvec] and the prepared dense apply add each product's low 32 bits
    and high bits into two sums and reduce once per row; a dense operator
    is prepared once as its residues in [uint32] words, which the apply
    multiplies 8 per [vpmuludq] on AVX-512 (an intrinsics loop) and in a
    plain body cloned for avx2 and default elsewhere; [axpy_into] and
    [scale_into] reduce each product by Shoup's quotient of their scalar,
    computed once per call; a butterfly network is prepared once as
    [uint32] words, each coefficient beside its Shoup quotient, and
    applied in 32-bit arithmetic with no Barrett step, 8 Shoup products
    per [vpmuludq] on AVX-512 (an intrinsics loop) and in a plain body
    cloned for avx2 and default elsewhere; a sparse operator is prepared
    once as SELL-8 on AVX-512 — rows sorted by length, slices of 8 rows
    stored column by column as zero-padded [uint32] columns and values —
    and applied by one gather and one [vpmuludq] per slice column into
    exact 64-bit lane sums (split sums for a slice too wide for them),
    one reduction per row, while elsewhere it keeps the CSR arrays and
    runs the CSR loop; [dot], [dot_acc], [matvec], [axpy] and
    [scale] run in a clone built for the widest instruction set the CPU
    has ({!Cstub.gfp_isa}).  CSR and matmul block ends and pointwise
    products are one Barrett step each.

    Elements are canonical residues in [0, p) in native [int]s (the
    [Gfp_word { p }] representation).  Every primitive reduces to the
    canonical residue, and GF(p) addition is associative over a canonical
    representation, so regrouping the delayed reductions — the only
    freedom the C side takes — cannot change the resulting word: the
    backend is bit-identical to the derived kernel by construction, and
    the differential suite in [test_kernel.ml] enforces it.

    The matmul accumulates each output row unreduced in an [int64]
    Bigarray scratch (allocated per call — kernels are fanned out across
    pool domains, so module-level scratch would race). *)

(* whether this CPU runs the AVX-512 loops, so a sparse operator is
   prepared as SELL-8 *)
let sell = Cstub.gfp_isa () = "avx512f"

let make ~p : (module Kernel_intf.KERNEL with type t = int) =
  (module struct
    type t = int

    let backend = "gfp_cstub"

    let dot a b = Cstub.gfp_dot a b (Array.length a) p

    let dot_acc ~init ~x ~xoff ~y ~yoff ~len =
      Cstub.gfp_dot_acc init x xoff y yoff len p

    let csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst =
      Cstub.gfp_csr_matvec row_ptr cols vals row_lo row_hi x dst p

    type csr =
      | Sell of Bytes.t
      | Rows of { row_ptr : int array; cols : int array; vals : int array }

    let csr_prepare ~row_ptr ~cols ~vals =
      if sell then Sell (Cstub.gfp_sell_prepare row_ptr cols vals)
      else Rows { row_ptr; cols; vals }

    let csr_apply_into op ~src ~dst =
      match op with
      | Sell w -> Cstub.gfp_sell_apply w src dst p
      | Rows { row_ptr; cols; vals } ->
        Cstub.gfp_csr_matvec row_ptr cols vals 0
          (Array.length row_ptr - 1)
          src dst p

    type dense = Bytes.t

    let dense_prepare ~rows ~cols m = Cstub.gfp_dense_prepare rows cols m

    let dense_apply_into op ~src ~dst = Cstub.gfp_dense_apply op src dst p

    type butterfly = Bytes.t

    let butterfly_prepare ~d ~layers = Cstub.gfp_butterfly_prepare d layers p

    let butterfly_apply_into net ~transpose ~src ~dst =
      Cstub.gfp_butterfly_apply net transpose src dst

    let axpy_into ~a ~x ~xoff ~y ~yoff ~len =
      if a <> 0 then Cstub.gfp_axpy a x xoff y yoff len p

    let scale_into ~a ~x ~xoff ~dst ~doff ~len =
      Cstub.gfp_scale a x xoff dst doff len p

    let add_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
      Cstub.gfp_add x xoff y yoff dst doff len p

    let sub_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
      Cstub.gfp_sub x xoff y yoff dst doff len p

    let pointwise_mul_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
      Cstub.gfp_pointwise x xoff y yoff dst doff len p

    let matvec_into ~m ~cols ~row_lo ~row_hi ~x ~dst =
      Cstub.gfp_matvec m cols row_lo row_hi x dst p

    let matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo ~row_hi =
      if row_hi > row_lo && bcols > 0 then
        Cstub.gfp_matmul a b dst inner bcols row_lo row_hi p
          (Cstub.make_scratch bcols)
  end)
