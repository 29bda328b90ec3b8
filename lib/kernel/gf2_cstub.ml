(** C-stub GF(2) kernel ([Gf2_bits] representation: 0/1 in native ints).

    Elementwise primitives run directly on the tagged words in C (AND
    preserves the tag, XOR re-tags); the matvec packs x once into 64-bit
    words in an [int64] Bigarray scratch and ANDs row words against it
    with a parity fold — any packing width yields the same parity, so the
    backend is bit-identical to the derived kernel. *)

type t = int

let backend = "gf2_cstub"

let dot a b = Cstub.gf2_dot a b (Array.length a)

let dot_acc ~init ~x ~xoff ~y ~yoff ~len =
  Cstub.gf2_dot_acc init x xoff y yoff len

let csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst =
  Cstub.gf2_csr_matvec row_ptr cols vals row_lo row_hi x dst

(* the CSR arrays in place: each apply is one [gf2_csr_matvec] call *)
type csr = { row_ptr : int array; cols : int array; vals : int array }

let csr_prepare ~row_ptr ~cols ~vals = { row_ptr; cols; vals }

let csr_apply_into { row_ptr; cols; vals } ~src ~dst =
  Cstub.gf2_csr_matvec row_ptr cols vals 0 (Array.length row_ptr - 1) src dst

(* the AND/XOR loop reads the diagonal and the layer records in place *)
type butterfly = { d : int array; layers : int Kernel_intf.butterfly_layer array }

let butterfly_prepare ~d ~layers = { d; layers }

let butterfly_apply_into { d; layers } ~transpose ~src ~dst =
  Cstub.gf2_butterfly_apply d layers transpose src dst

let axpy_into ~a ~x ~xoff ~y ~yoff ~len =
  if a <> 0 then Cstub.gf2_axpy x xoff y yoff len

let scale_into ~a ~x ~xoff ~dst ~doff ~len =
  Cstub.gf2_scale a x xoff dst doff len

let add_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
  Cstub.gf2_add x xoff y yoff dst doff len

(* subtraction is addition in characteristic 2 *)
let sub_into = add_into

let pointwise_mul_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
  Cstub.gf2_pointwise x xoff y yoff dst doff len

let matvec_into ~m ~cols ~row_lo ~row_hi ~x ~dst =
  if row_hi > row_lo then
    Cstub.gf2_matvec m cols row_lo row_hi x dst
      (Cstub.make_scratch ((cols + 63) / 64))

(* the matrix in place: each apply is one [gf2_matvec] call *)
type dense = { m : int array; rows : int; cols : int }

let dense_prepare ~rows ~cols m = { m; rows; cols }

let dense_apply_into { m; rows; cols } ~src ~dst =
  matvec_into ~m ~cols ~row_lo:0 ~row_hi:rows ~x:src ~dst

let matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo ~row_hi =
  Cstub.gf2_matmul a b dst inner bcols row_lo row_hi
