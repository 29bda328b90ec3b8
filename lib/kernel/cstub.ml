(** Bindings to the C bulk-arithmetic stubs ([kp_kernel_stubs.c]).

    Everything here is a thin, trusting wrapper: arrays are ordinary OCaml
    [int array]s read zero-copy by the stubs, bounds are the caller's
    contract (the same convention as every {!Kernel_intf.KERNEL}
    primitive), and all stubs are [@@noalloc] leaf calls.

    Scratch larger than a register file — the matmul row accumulator, the
    packed-x words of the GF(2) matvec — is an [int64] Bigarray allocated
    by the OCaml side per call (never shared: kernels are fanned out
    across domains by the pool, so module-level scratch would race). *)

type scratch = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_scratch n : scratch =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max 1 n)

(* hit counters for the C-stub family, surfaced by [kp --stats] and gated
   by the E18 baseline: the observable proof the stubs are actually taken *)
let c_calls = Kp_obs.Counter.make "kernel.cstub.calls"
let c_bulk_ops = Kp_obs.Counter.make "kernel.cstub.bulk_ops"

external gfp_dot : int array -> int array -> int -> int -> int
  = "kp_gfp_dot"
[@@noalloc]

external gfp_dot_acc :
  int -> int array -> int -> int array -> int -> int -> int -> int
  = "kp_gfp_dot_acc_byte" "kp_gfp_dot_acc"
[@@noalloc]

external gfp_csr_matvec :
  int array ->
  int array ->
  int array ->
  int ->
  int ->
  int array ->
  int array ->
  int ->
  unit
  = "kp_gfp_csr_matvec_byte" "kp_gfp_csr_matvec"
[@@noalloc]

external gfp_butterfly_prepare :
  int array -> int Kernel_intf.butterfly_layer array -> int -> Bytes.t
  = "kp_gfp_butterfly_prepare"
(** The network's words: each coefficient as a [uint32] beside its Shoup
    quotient (layout in [kp_kernel_stubs.c]). *)

external gfp_butterfly_apply : Bytes.t -> bool -> int array -> int array -> unit
  = "kp_gfp_butterfly_apply"
[@@noalloc]
(** [gfp_butterfly_apply net transpose src dst]: dst ← P·src (or Pᵀ·src)
    by the AVX-512 loops where {!gfp_isa} is ["avx512f"], else by the
    plain body's clone. *)

external gfp_butterfly_apply_plain :
  Bytes.t -> bool -> int array -> int array -> unit
  = "kp_gfp_butterfly_apply_plain"
[@@noalloc]
(** {!gfp_butterfly_apply} by the plain body whatever the CPU — for
    tests, which check on an AVX-512 host the body other hosts run. *)

external gfp_sell_prepare : int array -> int array -> int array -> Bytes.t
  = "kp_gfp_sell_prepare"
(** [gfp_sell_prepare row_ptr cols vals]: the CSR matrix as SELL-8 words
    (layout in [kp_kernel_stubs.c]), for an AVX-512 host only. *)

external gfp_sell_apply : Bytes.t -> int array -> int array -> int -> unit
  = "kp_gfp_sell_apply"
[@@noalloc]
(** [gfp_sell_apply op src dst p]: dst ← A·src for a SELL-8 operator, by
    the AVX-512 gather loop; a no-op where {!gfp_isa} is not
    ["avx512f"], since no such host prepares one. *)

external gfp_shoup_quotient : int -> int -> int = "kp_gfp_shoup_quotient"
[@@noalloc]
(** [gfp_shoup_quotient a p] = ⌊a·2³²/p⌋ for [0 ≤ a < p < 2³⁰], by the
    Barrett estimate and correction a network's prepare stores beside
    each coefficient. *)

external gfp_axpy :
  int -> int array -> int -> int array -> int -> int -> int -> unit
  = "kp_gfp_axpy_byte" "kp_gfp_axpy"
[@@noalloc]

external gfp_scale :
  int -> int array -> int -> int array -> int -> int -> int -> unit
  = "kp_gfp_scale_byte" "kp_gfp_scale"
[@@noalloc]

external gfp_add :
  int array -> int -> int array -> int -> int array -> int -> int -> int -> unit
  = "kp_gfp_add_byte" "kp_gfp_add"
[@@noalloc]

external gfp_sub :
  int array -> int -> int array -> int -> int array -> int -> int -> int -> unit
  = "kp_gfp_sub_byte" "kp_gfp_sub"
[@@noalloc]

external gfp_pointwise :
  int array -> int -> int array -> int -> int array -> int -> int -> int -> unit
  = "kp_gfp_pointwise_byte" "kp_gfp_pointwise"
[@@noalloc]

external gfp_matvec :
  int array -> int -> int -> int -> int array -> int array -> int -> unit
  = "kp_gfp_matvec_byte" "kp_gfp_matvec"
[@@noalloc]

external gfp_dense_prepare : int -> int -> int array -> Bytes.t
  = "kp_gfp_dense_prepare"
(** [gfp_dense_prepare rows cols m]: rows, cols, then m's rows·cols
    residues as [uint32] words, row-major. *)

external gfp_dense_apply : Bytes.t -> int array -> int array -> int -> unit
  = "kp_gfp_dense_apply"
[@@noalloc]
(** [gfp_dense_apply op src dst p]: dst ← A·src for the prepared A, by
    the AVX-512 loop where {!gfp_isa} is ["avx512f"], else by the plain
    body's clone. *)

external gfp_dense_apply_plain :
  Bytes.t -> int array -> int array -> int -> unit
  = "kp_gfp_dense_apply_plain"
[@@noalloc]
(** {!gfp_dense_apply} by the plain body whatever the CPU — for tests,
    which check on an AVX-512 host the body other hosts run. *)

external gfp_isa : unit -> string = "kp_gfp_isa"
(** The instruction set the GF(p) [dot], [dot_acc], [matvec], [axpy],
    [scale], butterfly-network, prepared dense and prepared sparse loops
    run on: ["avx512f"], ["avx2"] or ["default"] (also the answer on a
    toolchain that builds the plain body only).  The loader resolves the
    clones of the first five to it; on ["avx512f"] the prepared dense
    apply, the butterfly network and the SELL-8 sparse operator run
    their intrinsics loops, elsewhere the first two run their plain
    bodies' clones and the sparse operator the CSR loop. *)

external gfp_matmul :
  int array ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  scratch ->
  unit
  = "kp_gfp_matmul_byte" "kp_gfp_matmul"
[@@noalloc]

external gf2_dot : int array -> int array -> int -> int = "kp_gf2_dot"
[@@noalloc]

external gf2_dot_acc :
  int -> int array -> int -> int array -> int -> int -> int
  = "kp_gf2_dot_acc_byte" "kp_gf2_dot_acc"
[@@noalloc]

external gf2_csr_matvec :
  int array ->
  int array ->
  int array ->
  int ->
  int ->
  int array ->
  int array ->
  unit
  = "kp_gf2_csr_matvec_byte" "kp_gf2_csr_matvec"
[@@noalloc]

external gf2_butterfly_apply :
  int array ->
  int Kernel_intf.butterfly_layer array ->
  bool ->
  int array ->
  int array ->
  unit = "kp_gf2_butterfly_apply"
[@@noalloc]

external gf2_axpy : int array -> int -> int array -> int -> int -> unit
  = "kp_gf2_axpy"
[@@noalloc]

external gf2_scale :
  int -> int array -> int -> int array -> int -> int -> unit
  = "kp_gf2_scale_byte" "kp_gf2_scale"
[@@noalloc]

external gf2_add :
  int array -> int -> int array -> int -> int array -> int -> int -> unit
  = "kp_gf2_add_byte" "kp_gf2_add"
[@@noalloc]

external gf2_pointwise :
  int array -> int -> int array -> int -> int array -> int -> int -> unit
  = "kp_gf2_pointwise_byte" "kp_gf2_pointwise"
[@@noalloc]

external gf2_matvec :
  int array -> int -> int -> int -> int array -> int array -> scratch -> unit
  = "kp_gf2_matvec_byte" "kp_gf2_matvec"
[@@noalloc]

external gf2_matmul :
  int array -> int array -> int array -> int -> int -> int -> int -> unit
  = "kp_gf2_matmul_byte" "kp_gf2_matmul"
[@@noalloc]
