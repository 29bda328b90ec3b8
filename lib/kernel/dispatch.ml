(** Kernel selection and instrumentation.

    [Make (F)] (or [of_field]) is a pure function of [F.kernel_hint] — the
    GADT ties the hint to [F.t], so matching [Gfp_word] refines [F.t = int]
    and the C-stub [int] backends typecheck without magic:

    - [Gfp_word { p }] → [gfp_cstub];
    - [Gf2_bits] → [gf2_cstub];
    - [Generic] → [derived], the operation-faithful reference kernel.

    Counting fields, fault injectors and circuit builders declare [Generic],
    so they never skip scalar operations.  Re-exporting a hinted field with
    [let kernel_hint = Generic] gives its reference twin: same elements,
    derived kernel — how the differential suites pit the C stubs against
    the reference without any global state.

    Chosen backends are wrapped with hit counters:

    - [kernel.<backend>]        — bulk calls served by that backend;
    - [kernel.bulk_ops]         — total element operations, all backends;
    - [kernel.cstub.calls] / [kernel.cstub.bulk_ops] — the same, counted
      only when a C-stub backend serves the call.

    The counters are the observable proof that a fast path is (or is not)
    being taken; [kp --stats] and the benchmark tables surface them. *)

open Kp_field.Field_intf

let c_bulk_ops = Kp_obs.Counter.make "kernel.bulk_ops"

(* ------------------------------------------------------------------ *)
(* instrumentation                                                    *)
(* ------------------------------------------------------------------ *)

module type METERS = sig
  val hits : Kp_obs.Counter.t list
  (** Bumped once per bulk call. *)

  val ops : Kp_obs.Counter.t list
  (** Advanced by the element-operation count of each call. *)
end

(* A prepared network together with the backend that prepared it.  Every
   instrumented kernel has this one butterfly type, whichever backend the
   hint selected, so unpacking [of_field]'s result creates no fresh type
   and [Make] stays an applicative functor. *)
type 'a network =
  | Network : {
      kernel :
        (module Kernel_intf.KERNEL with type t = 'a and type butterfly = 'n);
      net : 'n;
      ops : int;
    }
      -> 'a network

(* A prepared dense operator with its backend, for the same reason *)
type 'a dense =
  | Dense : {
      kernel :
        (module Kernel_intf.KERNEL with type t = 'a and type dense = 'd);
      op : 'd;
      ops : int;
    }
      -> 'a dense

(* A prepared sparse operator with its backend, for the same reason *)
type 'a csr =
  | Csr : {
      kernel : (module Kernel_intf.KERNEL with type t = 'a and type csr = 'c);
      op : 'c;
      ops : int;
    }
      -> 'a csr

(* the kernels [of_field] returns *)
type 'a metered =
  (module Kernel_intf.KERNEL
     with type t = 'a
      and type butterfly = 'a network
      and type dense = 'a dense
      and type csr = 'a csr)

module Metered (M : METERS) (K : Kernel_intf.KERNEL) :
  Kernel_intf.KERNEL
    with type t = K.t
     and type butterfly = K.t network
     and type dense = K.t dense
     and type csr = K.t csr = struct
  type t = K.t

  let backend = K.backend

  (* no closure over [work]: a tick allocates nothing, so a loop of
     kernel calls into reused buffers stays allocation-free *)
  let rec add_all work = function
    | [] -> ()
    | c :: rest ->
      Kp_obs.Counter.add c work;
      add_all work rest

  let[@inline] tick work =
    List.iter Kp_obs.Counter.incr M.hits;
    add_all work M.ops

  let dot a b =
    tick (Array.length a);
    K.dot a b

  let dot_acc ~init ~x ~xoff ~y ~yoff ~len =
    tick len;
    K.dot_acc ~init ~x ~xoff ~y ~yoff ~len

  let csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst =
    tick (row_ptr.(row_hi) - row_ptr.(row_lo));
    K.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst

  (* prepare ticks nothing; an apply ticks as a csr_matvec_into over
     all rows, by the matrix's own entry count *)
  type nonrec csr = t csr

  let csr_prepare ~row_ptr ~cols ~vals =
    Csr
      {
        kernel = (module K);
        op = K.csr_prepare ~row_ptr ~cols ~vals;
        ops = row_ptr.(Array.length row_ptr - 1) - row_ptr.(0);
      }

  let csr_apply_into (Csr { kernel; op; ops } : csr) ~src ~dst =
    let module S = (val kernel) in
    tick ops;
    S.csr_apply_into op ~src ~dst

  (* one tick per apply: the diagonal's n products plus four
     multiply-adds per pair, as matvec counts one per entry *)
  type butterfly = t network

  let butterfly_prepare ~d ~layers =
    let n = Array.length d in
    let pairs =
      Array.fold_left
        (fun acc { Kernel_intf.stride; _ } ->
          acc + Kernel_intf.butterfly_pairs ~n ~stride)
        0 layers
    in
    Network
      {
        kernel = (module K);
        net = K.butterfly_prepare ~d ~layers;
        ops = n + (4 * pairs);
      }

  let butterfly_apply_into (Network { kernel; net; ops } : butterfly)
      ~transpose ~src ~dst =
    let module B = (val kernel) in
    tick ops;
    B.butterfly_apply_into net ~transpose ~src ~dst

  let axpy_into ~a ~x ~xoff ~y ~yoff ~len =
    tick len;
    K.axpy_into ~a ~x ~xoff ~y ~yoff ~len

  let scale_into ~a ~x ~xoff ~dst ~doff ~len =
    tick len;
    K.scale_into ~a ~x ~xoff ~dst ~doff ~len

  let add_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    tick len;
    K.add_into ~x ~xoff ~y ~yoff ~dst ~doff ~len

  let sub_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    tick len;
    K.sub_into ~x ~xoff ~y ~yoff ~dst ~doff ~len

  let pointwise_mul_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    tick len;
    K.pointwise_mul_into ~x ~xoff ~y ~yoff ~dst ~doff ~len

  let matvec_into ~m ~cols ~row_lo ~row_hi ~x ~dst =
    tick ((row_hi - row_lo) * cols);
    K.matvec_into ~m ~cols ~row_lo ~row_hi ~x ~dst

  (* prepare ticks nothing; an apply ticks as a whole-matrix matvec *)
  type nonrec dense = t dense

  let dense_prepare ~rows ~cols m =
    Dense
      {
        kernel = (module K);
        op = K.dense_prepare ~rows ~cols m;
        ops = rows * cols;
      }

  let dense_apply_into (Dense { kernel; op; ops } : dense) ~src ~dst =
    let module D = (val kernel) in
    tick ops;
    D.dense_apply_into op ~src ~dst

  let matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo ~row_hi =
    tick ((row_hi - row_lo) * inner * bcols);
    K.matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo ~row_hi
end

let is_cstub_backend name = name = "gfp_cstub" || name = "gf2_cstub"

(* ------------------------------------------------------------------ *)
(* resolution                                                         *)
(* ------------------------------------------------------------------ *)

(* the backend a [Make]/[of_field] on a field with [hint] selects *)
let backend_name (type a) (hint : a kernel_hint) =
  match hint with
  | Gfp_word _ -> "gfp_cstub"
  | Gf2_bits -> "gf2_cstub"
  | Generic -> "derived"

(* uninstrumented selection — used by the differential tests to compare raw
   backends, and anywhere counter traffic is unwanted *)
let of_field_raw (type a) (module F : FIELD with type t = a) :
    a Kernel_intf.kernel =
  match F.kernel_hint with
  | Gfp_word { p } -> Gfp_cstub.make ~p
  | Gf2_bits -> (module Gf2_cstub)
  | Generic -> (module Derived.Make (F))

let of_field (type a) (module F : FIELD with type t = a) : a metered =
  let base = of_field_raw (module F : FIELD with type t = a) in
  let module K = (val base) in
  let meters : (module METERS) =
    if is_cstub_backend K.backend then
      (module struct
        let hits = [ Kp_obs.Counter.make ("kernel." ^ K.backend); Cstub.c_calls ]
        let ops = [ c_bulk_ops; Cstub.c_bulk_ops ]
      end)
    else
      (module struct
        let hits = [ Kp_obs.Counter.make ("kernel." ^ K.backend) ]
        let ops = [ c_bulk_ops ]
      end)
  in
  let module M = (val meters) in
  (module Metered (M) (K))

module Make (F : FIELD) :
  Kernel_intf.KERNEL
    with type t = F.t
     and type butterfly = F.t network
     and type dense = F.t dense
     and type csr = F.t csr =
  (val of_field (module F : FIELD with type t = F.t))
