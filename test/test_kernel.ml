(* Bulk vector-kernel layer (lib/kernel): differential correctness.

   The contract under test is bit-identity: each C-stub backend (gfp_cstub
   at every prime, gf2_cstub) must return exactly the words the derived
   reference kernel returns on the same inputs, for every primitive, every
   size (including 0, 1 and non-powers-of-two straddling the C stubs'
   64-bit packed GF(2) word), every offset pattern the call sites use
   (including the aliased dst = x recombination pattern of Karatsuba), and
   boundary values (all-zero, all p−1 — the delayed-reduction
   accumulator's worst case).  Dispatch must resolve the documented backend
   for every hint, the pooled row-block product must equal the sequential
   one over 1/2/4 domains, and generic-hinted fields (GF(2^8), Q, counting,
   fault-wrapped, a hinted field's Generic twin) must ride the derived
   kernel with unchanged operation counts. *)

module Dispatch = Kp_kernel.Dispatch

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module type F_INT = Kp_field.Field_intf.FIELD with type t = int

(* one instance per specialized hint, at primes that put the GF(p) stubs
   on different delayed-reduction blocks: p = 2 (the runtime field of
   [kp --prime 2] — a Gfp_word field, so gfp_cstub, not gf2_cstub), 97
   (block effectively unbounded), the NTT prime, and 1073741789, the
   largest prime below 2^30 (the shortest block, 8 products) *)
let specialized : (string * (module F_INT)) list =
  [
    ("gfp.2", Kp_field.Gfp.make 2);
    ("gfp.97", (module Kp_field.Fields.Gf_97));
    ("gfp.ntt", (module Kp_field.Fields.Gf_ntt));
    ("gfp.big", (module Kp_field.Fields.Gf_big));
    ("gf2", (module Kp_field.Gf2));
  ]

(* the fast backend implementing [F]'s hinted representation — built
   directly, not through dispatch, so the differential sweep tests the
   backend itself *)
let backends_for (module F : F_INT) :
    (string * int Kp_kernel.Kernel_intf.kernel) list =
  match F.kernel_hint with
  | Kp_field.Field_intf.Gfp_word { p } ->
    [ ("gfp_cstub", Kp_kernel.Gfp_cstub.make ~p) ]
  | Kp_field.Field_intf.Gf2_bits ->
    [
      ( "gf2_cstub",
        (module Kp_kernel.Gf2_cstub : Kp_kernel.Kernel_intf.KERNEL
          with type t = int) );
    ]
  | Kp_field.Field_intf.Generic -> []

(* 61..65 straddle the C stubs' 64-bit packed GF(2) word; 124..128
   straddle the second word *)
let edge_sizes = [ 0; 1; 2; 3; 7; 8; 13; 61; 62; 63; 64; 65; 100; 124; 127; 128 ]
let straddle_sizes = [ 0; 1; 2; 61; 62; 63; 64; 65; 124; 127; 128 ]

(* element-value styles: [Rand] is the uniform sweep; [Extreme] mixes in
   0, 1 and p−1 densely; [Max] is all p−1 — the worst case for the
   delayed-reduction accumulators (largest raw products, latest carries) *)
type style = Rand | Extreme | Max

(* the strides a butterfly check sweeps: every stride up to n + 1 (the
   last ones have no pairs) for small n; powers of two plus ragged
   strides above that *)
let butterfly_strides n =
  if n <= 130 then List.init (n + 1) (fun s -> s + 1)
  else
    let rec pow2 s = if s <= n then s :: pow2 (2 * s) else [] in
    List.sort_uniq compare (pow2 1 @ [ 3; 5; 7; (n / 2) + 1; n - 1; n + 1 ])

(* a prepared sparse operator against the derived kernel's
   [csr_matvec_into] over all rows, into a garbage destination longer
   than the row count whose tail must stay untouched, applied twice from
   one prepare, the source untouched *)
let check_csr_prepared ~ctx (module F : F_INT)
    (module S : Kp_kernel.Kernel_intf.KERNEL with type t = int) ~elt ~row_ptr
    ~cols ~vals ~x what =
  let module D = Kp_kernel.Derived.Make (F) in
  let rows = Array.length row_ptr - 1 in
  let x0 = Array.copy x in
  let want = Array.init (rows + 2) (fun _ -> elt ()) in
  let op = S.csr_prepare ~row_ptr ~cols ~vals in
  let dst = Array.copy want in
  D.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo:0 ~row_hi:rows ~x ~dst:want;
  for i = 1 to 2 do
    S.csr_apply_into op ~src:x ~dst;
    check_bool
      (ctx (Printf.sprintf "%s %d rows, apply %d" what rows i))
      true
      (Array.for_all2 F.equal dst want)
  done;
  check_bool (ctx (what ^ ": source untouched")) true (x = x0)

(* CSR product: random row lengths up to 20 (empty rows included, and rows
   longer than the shortest delayed-reduction block) over random columns;
   the full row range, an inner one and the two halves, written into a
   dst longer than n whose entries outside the range must stay untouched *)
let check_csr ~ctx (module F : F_INT)
    (module S : Kp_kernel.Kernel_intf.KERNEL with type t = int) ~elt ~st ~n =
  let module D = Kp_kernel.Derived.Make (F) in
  let xn = max 1 n in
  let x = Array.init xn (fun _ -> elt ()) in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Random.State.int st 21
  done;
  let nnz = row_ptr.(n) in
  let vals = Array.init nnz (fun _ -> elt ()) in
  let cols = Array.init nnz (fun _ -> Random.State.int st xn) in
  let dst0 = Array.init (n + 2) (fun _ -> elt ()) in
  let ranges =
    List.sort_uniq compare
      [ (0, n); (min 1 n, max (min 1 n) (n - 1)); (0, n / 2); (n / 2, n) ]
  in
  List.iter
    (fun (row_lo, row_hi) ->
      let d1 = Array.copy dst0 and d2 = Array.copy dst0 in
      S.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst:d1;
      D.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst:d2;
      check_bool
        (ctx (Printf.sprintf "csr_matvec_into %d..%d" row_lo row_hi))
        true
        (Array.for_all2 F.equal d1 d2))
    ranges;
  check_csr_prepared ~ctx (module F) (module S) ~elt ~row_ptr ~cols ~vals ~x
    "csr prepared"

(* a network of a random diagonal and [layers], forward and transposed,
   against the derived network over the same arrays; the destination
   starts as garbage and the source must stay untouched *)
let check_network ~ctx (module F : F_INT)
    (module S : Kp_kernel.Kernel_intf.KERNEL with type t = int) ~elt ~n
    ~layers what =
  let module D = Kp_kernel.Derived.Make (F) in
  let d = Array.init n (fun _ -> elt ()) in
  let src = Array.init n (fun _ -> elt ()) in
  let src0 = Array.copy src in
  let ns = S.butterfly_prepare ~d ~layers
  and nd = D.butterfly_prepare ~d ~layers in
  List.iter
    (fun transpose ->
      let d1 = Array.init n (fun _ -> elt ()) in
      let d2 = Array.copy d1 in
      S.butterfly_apply_into ns ~transpose ~src ~dst:d1;
      D.butterfly_apply_into nd ~transpose ~src ~dst:d2;
      check_bool
        (ctx (Printf.sprintf "%s transpose=%b" what transpose))
        true
        (Array.for_all2 F.equal d1 d2))
    [ false; true ];
  check_bool (ctx (what ^ ": source untouched")) true (src = src0)

let random_layer ~elt ~n stride =
  let pairs = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
  let coef () = Array.init pairs (fun _ -> elt ()) in
  let a = coef () in
  let b = coef () in
  let c = coef () in
  { Kp_kernel.Kernel_intf.stride; a; b; c; dd = coef () }

(* a one-layer network of the given stride; the pair count is checked
   against the preconditioner's original per-block loop, which paired i
   with i + stride whenever both are below n *)
let check_butterfly ~ctx f s ~elt ~n ~stride =
  let pairs = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
  let counted = ref 0 and blk = ref 0 in
  while !blk < n do
    for i = !blk to min (!blk + stride) n - 1 do
      if i + stride < n then incr counted
    done;
    blk := !blk + (2 * stride)
  done;
  check_int (ctx (Printf.sprintf "butterfly_pairs s=%d" stride)) !counted pairs;
  check_network ~ctx f s ~elt ~n
    ~layers:[| random_layer ~elt ~n stride |]
    (Printf.sprintf "butterfly s=%d" stride)

(* the preconditioner's network: one layer per stride 1, 2, 4, … below n *)
let check_full_network ~ctx f s ~elt ~n =
  let rec strides s = if s < n then s :: strides (2 * s) else [] in
  check_network ~ctx f s ~elt ~n
    ~layers:(Array.of_list (List.map (random_layer ~elt ~n) (strides 1)))
    "butterfly network"

(* the prepared dense apply of backend [S] over [F], as a one-shot
   prepare-and-apply; for gfp_cstub also the plain C body through its
   test-only entry, which is the loop hosts without AVX-512 run *)
let dense_bodies (module F : F_INT)
    (module S : Kp_kernel.Kernel_intf.KERNEL with type t = int) =
  let prepared ~rows ~cols m ~src ~dst =
    S.dense_apply_into (S.dense_prepare ~rows ~cols m) ~src ~dst
  in
  (S.backend, prepared)
  ::
  (match F.kernel_hint with
  | Kp_field.Field_intf.Gfp_word { p } when S.backend = "gfp_cstub" ->
    [
      ( "gfp_cstub plain body",
        fun ~rows ~cols m ~src ~dst ->
          Kp_kernel.Cstub.gfp_dense_apply_plain
            (Kp_kernel.Cstub.gfp_dense_prepare rows cols m)
            src dst p );
    ]
  | _ -> [])

(* each body's product of a rows×cols matrix against the derived
   kernel's [matvec_into], into a garbage destination, source untouched *)
let check_dense ~ctx (module F : F_INT) bodies ~elt ~rows ~cols =
  let module D = Kp_kernel.Derived.Make (F) in
  let m = Array.init (rows * cols) (fun _ -> elt ()) in
  let src = Array.init cols (fun _ -> elt ()) in
  let src0 = Array.copy src in
  let want = Array.init rows (fun _ -> elt ()) in
  D.matvec_into ~m ~cols ~row_lo:0 ~row_hi:rows ~x:src ~dst:want;
  List.iter
    (fun (body, apply) ->
      let dst = Array.init rows (fun _ -> elt ()) in
      apply ~rows ~cols m ~src ~dst;
      let what = Printf.sprintf "dense %dx%d %s" rows cols body in
      check_bool (ctx what) true (Array.for_all2 F.equal dst want);
      check_bool (ctx (what ^ ": source untouched")) true (src = src0))
    bodies

(* every KERNEL primitive, one explicit backend vs the derived reference,
   on identical seed-determined inputs; raises on the first mismatch *)
let check_primitives ~name (module F : F_INT)
    (module S : Kp_kernel.Kernel_intf.KERNEL with type t = int) ?(xoff = 2)
    ?(yoff = 3) ?(doff = 3) ?(style = Rand) ~seed ~n () =
  let module D = Kp_kernel.Derived.Make (F) in
  let st = Kp_util.Rng.make (seed + (1000 * n)) in
  let max_elt = F.sub F.zero F.one (* p−1, canonically represented *) in
  let elt () =
    match style with
    | Rand -> F.random st
    | Max -> max_elt
    | Extreme -> (
      match Random.State.int st 4 with
      | 0 -> F.zero
      | 1 -> F.one
      | 2 -> max_elt
      | _ -> F.random st)
  in
  let arr k = Array.init k (fun _ -> elt ()) in
  let ctx prim =
    Printf.sprintf "%s %s n=%d seed=%d off=%d,%d,%d" name prim n seed xoff yoff
      doff
  in
  let same prim xs ys =
    check_bool (ctx prim) true (Array.for_all2 F.equal xs ys)
  in
  let a = arr n and b = arr n in
  check_bool (ctx "dot") true (F.equal (S.dot a b) (D.dot a b));
  (* offset vectors: x read at [xoff], y at [yoff], dst written at [doff],
     so the kernels must neither touch bytes outside [off, off+len) nor
     misindex; the cushion makes every 0..8 offset in range *)
  let x = arr (n + 9) and y = arr (n + 9) in
  let alpha = elt () in
  let into prim f g =
    let d1 = Array.copy y and d2 = Array.copy y in
    f d1;
    g d2;
    same prim d1 d2
  in
  into "axpy_into"
    (fun d -> S.axpy_into ~a:alpha ~x ~xoff ~y:d ~yoff ~len:n)
    (fun d -> D.axpy_into ~a:alpha ~x ~xoff ~y:d ~yoff ~len:n);
  into "axpy_into(zero)"
    (fun d -> S.axpy_into ~a:F.zero ~x ~xoff ~y:d ~yoff ~len:n)
    (fun d -> D.axpy_into ~a:F.zero ~x ~xoff ~y:d ~yoff ~len:n);
  into "scale_into"
    (fun d -> S.scale_into ~a:alpha ~x ~xoff ~dst:d ~doff ~len:n)
    (fun d -> D.scale_into ~a:alpha ~x ~xoff ~dst:d ~doff ~len:n);
  (* the scalars at the ends of the GF(p) stubs' Shoup quotient *)
  List.iter
    (fun (what, a) ->
      into
        (Printf.sprintf "axpy_into(a=%s)" what)
        (fun d -> S.axpy_into ~a ~x ~xoff ~y:d ~yoff ~len:n)
        (fun d -> D.axpy_into ~a ~x ~xoff ~y:d ~yoff ~len:n);
      into
        (Printf.sprintf "scale_into(a=%s)" what)
        (fun d -> S.scale_into ~a ~x ~xoff ~dst:d ~doff ~len:n)
        (fun d -> D.scale_into ~a ~x ~xoff ~dst:d ~doff ~len:n))
    [ ("0", F.zero); ("1", F.one); ("p-1", max_elt) ];
  (* source and destination in one array at different offsets: the stubs
     must replay the derived kernel's forward sequential loop *)
  into "axpy_into(overlapping)"
    (fun d -> S.axpy_into ~a:alpha ~x:d ~xoff ~y:d ~yoff ~len:n)
    (fun d -> D.axpy_into ~a:alpha ~x:d ~xoff ~y:d ~yoff ~len:n);
  into "scale_into(overlapping)"
    (fun d -> S.scale_into ~a:alpha ~x:d ~xoff ~dst:d ~doff ~len:n)
    (fun d -> D.scale_into ~a:alpha ~x:d ~xoff ~dst:d ~doff ~len:n);
  List.iter
    (fun init ->
      check_bool
        (ctx (Printf.sprintf "dot_acc init=%s" (F.to_string init)))
        true
        (F.equal
           (S.dot_acc ~init ~x ~xoff ~y ~yoff ~len:n)
           (D.dot_acc ~init ~x ~xoff ~y ~yoff ~len:n)))
    [ F.zero; F.one; max_elt; elt () ];
  into "add_into"
    (fun d -> S.add_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n)
    (fun d -> D.add_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n);
  into "sub_into"
    (fun d -> S.sub_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n)
    (fun d -> D.sub_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n);
  into "pointwise_mul_into"
    (fun d -> S.pointwise_mul_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n)
    (fun d -> D.pointwise_mul_into ~x ~xoff ~y:d ~yoff ~dst:d ~doff ~len:n);
  (* Karatsuba's recombination aliases dst with x at the same offset *)
  into "add_into(aliased)"
    (fun d -> S.add_into ~x:d ~xoff:doff ~y:x ~yoff ~dst:d ~doff ~len:n)
    (fun d -> D.add_into ~x:d ~xoff:doff ~y:x ~yoff ~dst:d ~doff ~len:n);
  into "scale_into(aliased)"
    (fun d -> S.scale_into ~a:alpha ~x:d ~xoff:doff ~dst:d ~doff ~len:n)
    (fun d -> D.scale_into ~a:alpha ~x:d ~xoff:doff ~dst:d ~doff ~len:n);
  check_csr ~ctx (module F) (module S) ~elt ~st ~n;
  List.iter
    (fun stride -> check_butterfly ~ctx (module F) (module S) ~elt ~n ~stride)
    (butterfly_strides n);
  check_full_network ~ctx (module F) (module S) ~elt ~n;
  (* matvec: n rows, irregular column count; full and partial row ranges
     (rows outside the range must be left untouched, which the shared
     initial dst contents verify) *)
  List.iter
    (fun cols ->
      let m = arr (n * cols) and mx = arr cols in
      let dst0 = arr n in
      let ranges = if n >= 2 then [ (0, n); (1, n - 1) ] else [ (0, n) ] in
      List.iter
        (fun (row_lo, row_hi) ->
          let d1 = Array.copy dst0 and d2 = Array.copy dst0 in
          S.matvec_into ~m ~cols ~row_lo ~row_hi ~x:mx ~dst:d1;
          D.matvec_into ~m ~cols ~row_lo ~row_hi ~x:mx ~dst:d2;
          same (Printf.sprintf "matvec_into c=%d %d..%d" cols row_lo row_hi)
            d1 d2)
        ranges;
      check_dense ~ctx (module F) (dense_bodies (module F) (module S)) ~elt
        ~rows:n ~cols)
    [ n + 3; 5 ];
  (* matmul: dst canonical-zero on entry (the documented convention) *)
  let rows = min n 9 and inner = min n 70 and bcols = (n mod 13) + 1 in
  let am = arr (rows * inner) and bm = arr (inner * bcols) in
  let ranges =
    if rows >= 2 then [ (0, rows); (1, rows - 1) ] else [ (0, rows) ]
  in
  List.iter
    (fun (row_lo, row_hi) ->
      let d1 = Array.make (rows * bcols) F.zero
      and d2 = Array.make (rows * bcols) F.zero in
      S.matmul_into ~a:am ~b:bm ~dst:d1 ~inner ~bcols ~row_lo ~row_hi;
      D.matmul_into ~a:am ~b:bm ~dst:d2 ~inner ~bcols ~row_lo ~row_hi;
      same (Printf.sprintf "matmul_into %d..%d" row_lo row_hi) d1 d2)
    ranges

(* the (field, backend) cross product the differential sweeps cover *)
let field_backend_pairs =
  List.concat_map
    (fun (fname, (module F : F_INT)) ->
      List.map
        (fun (bname, k) -> (fname ^ "/" ^ bname, (module F : F_INT), k))
        (backends_for (module F)))
    specialized

(* dispatch resolves the documented backend for every hint — each
   field's Generic twin included — and [backend_name] agrees with what
   [of_field_raw] actually builds *)
let test_backend_selection () =
  let expect (module F : F_INT) =
    match F.kernel_hint with
    | Kp_field.Field_intf.Gfp_word _ -> "gfp_cstub"
    | Kp_field.Field_intf.Gf2_bits -> "gf2_cstub"
    | Kp_field.Field_intf.Generic -> "derived"
  in
  let resolves name (module F : F_INT) =
    let expected = expect (module F) in
    let module S =
      (val Dispatch.of_field_raw
             (module F : Kp_field.Field_intf.FIELD with type t = int))
    in
    check_string (name ^ " resolves") expected S.backend;
    check_string (name ^ " backend_name agrees") expected
      (Dispatch.backend_name F.kernel_hint)
  in
  List.iter
    (fun (name, f) ->
      resolves name f;
      resolves (name ^ " twin") (Test_seeds.twin f))
    specialized;
  let module P2 = (val Kp_field.Gfp.make 2) in
  check_string "GF(2) as a runtime prime runs gfp_cstub" "gfp_cstub"
    (Dispatch.backend_name P2.kernel_hint);
  check_string "Fields.Gf2 runs gf2_cstub" "gf2_cstub"
    (Dispatch.backend_name Kp_field.Fields.Gf2.kernel_hint)

(* FIELD_CORE-derived, counting, fault-wrapped and unhinted fields never
   resolve to a specialized backend — a fast path would skip their scalar
   operations *)
let test_hint_free_fields () =
  let resolve (type a) (fm : (module Kp_field.Field_intf.FIELD with type t = a))
      =
    let module S = (val Dispatch.of_field_raw fm) in
    S.backend
  in
  let module Cnt = Kp_field.Counting.Make (Kp_field.Fields.Gf_ntt) in
  let module FF = Kp_robust.Fault.Field (Kp_field.Fields.Gf_ntt) in
  let faulty = FF.wrap (Kp_robust.Fault.plan ~seed:7 ()) in
  check_string "Counting stays derived" "derived"
    (resolve (module Cnt : Kp_field.Field_intf.FIELD with type t = Cnt.t));
  check_string "Fault-wrapped GF(p) stays derived" "derived" (resolve faulty);
  check_string "Q stays derived" "derived"
    (resolve
       (module Kp_field.Rational : Kp_field.Field_intf.FIELD
         with type t = Kp_field.Rational.t));
  check_string "GF(2^8) stays derived" "derived"
    (resolve
       (module Test_seeds.Gf2_8 : Kp_field.Field_intf.FIELD
         with type t = Test_seeds.Gf2_8.t))

let test_differential_edges () =
  List.iter
    (fun (name, f, k) ->
      List.iter
        (fun seed ->
          List.iter
            (fun n -> check_primitives ~name f k ~seed ~n ())
            edge_sizes)
        Test_seeds.shared_seeds)
    field_backend_pairs

(* boundary values on boundary sizes: all-p−1 inputs maximize the raw
   products the delayed-reduction accumulators absorb, and the mixed
   0/1/p−1 style hunts for canonicalization slips at the straddles *)
let test_differential_boundary_values () =
  List.iter
    (fun (name, f, k) ->
      List.iter
        (fun style ->
          List.iter
            (fun n ->
              check_primitives ~name f k ~style ~seed:29 ~n ();
              check_primitives ~name f k ~style ~xoff:0 ~yoff:0 ~doff:0
                ~seed:31 ~n ())
            straddle_sizes)
        [ Extreme; Max ])
    field_backend_pairs

(* random sizes, offsets and value styles beyond the deterministic sweeps:
   every primitive x every backend vs derived *)
let qcheck_differential =
  List.map
    (fun (name, f, k) ->
      QCheck.Test.make ~count:25
        ~name:(Printf.sprintf "kernel %s == derived (fuzzed)" name)
        QCheck.(
          pair
            (pair (int_bound 260) (int_bound 10_000))
            (triple (int_bound 4) (int_bound 4) (int_bound 4)))
        (fun ((n, seed), (xoff, yoff, doff)) ->
          let style =
            match seed mod 3 with 0 -> Rand | 1 -> Extreme | _ -> Max
          in
          check_primitives ~name f k ~xoff ~yoff ~doff ~style ~seed ~n ();
          true))
    field_backend_pairs

(* the CSR product at the sizes the black-box route uses — ragged and
   power-of-two n up to 1025, uniform and all-(p−1) inputs, partial row
   ranges *)
let test_csr_route_sizes () =
  List.iter
    (fun (name, (module F : F_INT), k) ->
      let max_elt = F.sub F.zero F.one in
      List.iter
        (fun (style, max) ->
          List.iter
            (fun n ->
              let st = Kp_util.Rng.make (n + if max then 1 else 0) in
              let elt () = if max then max_elt else F.random st in
              let ctx prim =
                Printf.sprintf "%s %s n=%d %s" name prim n style
              in
              check_csr ~ctx (module F) k ~elt ~st ~n)
            [ 0; 1; 2; 3; 5; 63; 64; 65; 1000; 1023; 1025 ])
        [ ("uniform", false); ("all p-1", true) ])
    field_backend_pairs

(* prepared butterfly networks at the sizes the black-box route uses,
   around the fixed-stride loops (1, 2, 4, 8), their vector widths and
   ragged last blocks: a one-layer network at every stride 1 … n+1 and
   the full network, forward and transposed, uniform and all-(p−1)
   values.  p = 1073741789 with all p−1 is the tight case of the GF(p)
   stub's [0, 4p) bound. *)
let network_primes = [ 2; 3; 97; 998244353; 1073741789 ]

let test_butterfly_network_sizes () =
  let fields =
    ("gf2", (module Kp_field.Gf2 : F_INT))
    :: List.map
         (fun p -> (Printf.sprintf "gfp.%d" p, Kp_field.Gfp.make p))
         network_primes
  in
  List.iter
    (fun (fname, (module F : F_INT)) ->
      let max_elt = F.sub F.zero F.one in
      List.iter
        (fun (bname, k) ->
          List.iter
            (fun (style, max) ->
              List.iter
                (fun n ->
                  let st = Kp_util.Rng.make (n + if max then 1 else 0) in
                  let elt () = if max then max_elt else F.random st in
                  let ctx what =
                    Printf.sprintf "%s/%s n=%d %s %s" fname bname n style what
                  in
                  check_full_network ~ctx (module F) k ~elt ~n;
                  for stride = 1 to n + 1 do
                    check_butterfly ~ctx (module F) k ~elt ~n ~stride
                  done)
                [ 0; 1; 2; 3; 5; 15; 16; 17; 31; 33; 63; 64; 65; 1000; 1023;
                  1025 ])
            [ ("uniform", false); ("all p-1", true) ])
        (backends_for (module F)))
    fields

(* prepared sparse operators at the shapes SELL-8 tells apart: no rows,
   a single row of every length 0 … 40, fewer rows than a slice, row
   counts that leave a partial last slice, rows of every length 1 … 40
   in one matrix (slices wider than the 16 products whose sum fits 64
   bits at p near 2^30), empty rows among full ones and all-empty
   matrices, the identity, and the black-box route's n = 1000 at about 8
   entries per row; uniform and all-(p−1) values, on every backend *)
let test_csr_prepared_shapes () =
  let fields =
    ("gf2", (module Kp_field.Gf2 : F_INT))
    :: List.map
         (fun p -> (Printf.sprintf "gfp.%d" p, Kp_field.Gfp.make p))
         [ 2; 97; 998244353; 1073741789 ]
  in
  let shuffled st l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let st = Kp_util.Rng.make 40 in
  let random_lens rows cap =
    List.init rows (fun _ -> Random.State.int st (cap + 1))
  in
  (* (what, row lengths, column count) *)
  let shapes =
    [ ("no rows", [], 5) ]
    @ List.init 41 (fun len -> (Printf.sprintf "one row of %d" len, [ len ], 45))
    @ List.map
        (fun rows -> (Printf.sprintf "%d rows" rows, random_lens rows 40, 50))
        [ 1; 2; 3; 5; 7; 9; 15; 17; 63; 65; 100; 1001 ]
    @ [
        ("rows of 1 to 40", shuffled st (List.init 40 (fun i -> i + 1)), 64);
        ( "rows of 0 to 40 twice",
          shuffled st (List.init 82 (fun i -> i mod 41)),
          41 );
        ("all empty", List.init 13 (fun _ -> 0), 13);
        ( "every other row empty",
          List.init 21 (fun i -> if i land 1 = 0 then 0 else 3 + i),
          30 );
        ("n = 1000, about 8 per row", random_lens 1000 15, 1000);
      ]
  in
  List.iter
    (fun (fname, (module F : F_INT)) ->
      let max_elt = F.sub F.zero F.one in
      List.iter
        (fun (bname, k) ->
          List.iter
            (fun (style, max) ->
              let elt () = if max then max_elt else F.random st in
              let ctx what = Printf.sprintf "%s/%s %s %s" fname bname style what in
              List.iter
                (fun (what, lens, ncols) ->
                  let rows = List.length lens in
                  let row_ptr = Array.make (rows + 1) 0 in
                  List.iteri (fun i l -> row_ptr.(i + 1) <- row_ptr.(i) + l) lens;
                  let nnz = row_ptr.(rows) in
                  let cols = Array.init nnz (fun _ -> Random.State.int st ncols) in
                  let vals = Array.init nnz (fun _ -> elt ()) in
                  let x = Array.init ncols (fun _ -> elt ()) in
                  check_csr_prepared ~ctx (module F) k ~elt ~row_ptr ~cols ~vals
                    ~x what)
                shapes;
              List.iter
                (fun n ->
                  let x = Array.init n (fun _ -> elt ()) in
                  check_csr_prepared ~ctx (module F) k ~elt
                    ~row_ptr:(Array.init (n + 1) Fun.id)
                    ~cols:(Array.init n Fun.id) ~vals:(Array.make n F.one) ~x
                    (Printf.sprintf "identity n=%d" n))
                [ 1; 7; 8; 13; 1000 ])
            [ ("uniform", false); ("all p-1", true) ])
        (backends_for (module F)))
    fields

(* the GF(p) butterfly through both C bodies — the apply, which runs the
   AVX-512 loops where the CPU has them, and the plain body's test entry,
   which every other host runs — against the derived network, forward
   and transposed: a one-layer network at every stride 1 … n + 1
   (strides 1, 2 and 4 take the AVX-512 loop's permute path, every other
   stride its contiguous runs, and ragged tails the scalar pairs) and
   the full network, for n = 1 … 70 and 1000, uniform and all-(p−1) *)
let test_butterfly_bodies () =
  List.iter
    (fun p ->
      let module F = (val Kp_field.Gfp.make p) in
      let module D = Kp_kernel.Derived.Make (F) in
      List.iter
        (fun (style, max) ->
          List.iter
            (fun n ->
              let st = Kp_util.Rng.make (p + n) in
              let elt () = if max then p - 1 else F.random st in
              let check ~layers what =
                let d = Array.init n (fun _ -> elt ()) in
                let src = Array.init n (fun _ -> elt ()) in
                let net = Kp_kernel.Cstub.gfp_butterfly_prepare d layers p in
                let nd = D.butterfly_prepare ~d ~layers in
                List.iter
                  (fun transpose ->
                    let want = Array.make n F.zero in
                    D.butterfly_apply_into nd ~transpose ~src ~dst:want;
                    List.iter
                      (fun (body, apply) ->
                        let dst = Array.init n (fun _ -> elt ()) in
                        apply net transpose src dst;
                        check_bool
                          (Printf.sprintf "p=%d n=%d %s %s %s transpose=%b" p n
                             style what body transpose)
                          true (dst = want))
                      [
                        ("apply", Kp_kernel.Cstub.gfp_butterfly_apply);
                        ("plain body", Kp_kernel.Cstub.gfp_butterfly_apply_plain);
                      ])
                  [ false; true ]
              in
              for stride = 1 to n + 1 do
                check
                  ~layers:[| random_layer ~elt ~n stride |]
                  (Printf.sprintf "s=%d" stride)
              done;
              let rec strides s = if s < n then s :: strides (2 * s) else [] in
              check
                ~layers:(Array.of_list (List.map (random_layer ~elt ~n) (strides 1)))
                "network")
            (List.init 70 (fun i -> i + 1) @ [ 1000 ]))
        [ ("uniform", false); ("all p-1", true) ])
    [ 2; 97; 998244353; 1073741789 ]

(* prepared dense applies at the shapes the AVX-512 loop and the plain
   body tell apart — row counts around its four-row passes, column counts
   around its 16-column blocks — and at the black-box route's n = 512 and
   1000, uniform and all-(p−1) (the tight case of the split sums' bounds),
   against the derived [matvec_into]: on every backend, and on the plain
   C body whatever the host runs *)
let test_dense_shapes () =
  let fields =
    ("gf2", (module Kp_field.Gf2 : F_INT))
    :: List.map
         (fun p -> (Printf.sprintf "gfp.%d" p, Kp_field.Gfp.make p))
         network_primes
  in
  let shapes =
    List.concat_map
      (fun rows ->
        List.map
          (fun cols -> (rows, cols))
          [ 0; 1; 7; 15; 16; 17; 31; 32; 33; 63; 64; 65 ])
      [ 0; 1; 3; 4; 5; 7; 8; 9 ]
    @ [ (512, 512); (1000, 1000) ]
  in
  List.iter
    (fun (fname, (module F : F_INT)) ->
      let module D = Kp_kernel.Derived.Make (F) in
      let bodies =
        ("derived", fun ~rows ~cols m ~src ~dst ->
            D.dense_apply_into (D.dense_prepare ~rows ~cols m) ~src ~dst)
        :: List.concat_map
             (fun (_, k) -> dense_bodies (module F) k)
             (backends_for (module F))
      in
      let max_elt = F.sub F.zero F.one in
      List.iter
        (fun (style, max) ->
          List.iter
            (fun (rows, cols) ->
              let st = Kp_util.Rng.make ((rows * 100) + cols) in
              let elt () = if max then max_elt else F.random st in
              let ctx what = Printf.sprintf "%s %s %s" fname style what in
              check_dense ~ctx (module F) bodies ~elt ~rows ~cols)
            shapes)
        [ ("uniform", false); ("all p-1", true) ])
    fields

(* the GF(p) stubs' Shoup quotient, a Barrett estimate with one
   correction, is ⌊a·2³²/p⌋ exactly *)
let test_shoup_quotient () =
  List.iter
    (fun p ->
      let st = Kp_util.Rng.make p in
      let check a =
        check_int
          (Printf.sprintf "p=%d a=%d" p a)
          ((a lsl 32) / p)
          (Kp_kernel.Cstub.gfp_shoup_quotient a p)
      in
      List.iter check [ 0; 1; p - 1 ];
      for _ = 1 to 2000 do
        check (Random.State.int st p)
      done)
    network_primes

(* the dense GF(p) inner products at every shape their split sums and
   four-row passes tell apart: row lengths around the vector widths and
   the blocking, row ranges that start past 0 with row counts that are
   not a multiple of 4 (rows outside the range must stay untouched),
   uniform and all-(p−1) inputs, p from 2 to the largest prime below
   2^30 — each against the field's Generic twin *)
let test_dense_inner_products () =
  let lengths =
    [ 0; 1; 3; 4; 5; 8; 9; 10; 17; 18; 19; 511; 512; 513; 4099 ]
  in
  let rows = 11 in
  let ranges =
    [ (0, 11); (1, 11); (3, 10); (5, 9); (2, 3); (4, 4); (0, 8) ]
  in
  List.iter
    (fun p ->
      let module F = (val Kp_field.Gfp.make p) in
      let module S = (val Kp_kernel.Gfp_cstub.make ~p) in
      let module T =
        (val Dispatch.of_field_raw
               (Test_seeds.twin (module F : F_INT)
                 : (module Kp_field.Field_intf.FIELD with type t = int)))
      in
      check_string "twin runs derived" "derived" T.backend;
      List.iter
        (fun max ->
          let st = Kp_util.Rng.make p in
          let elt () = if max then p - 1 else F.random st in
          List.iter
            (fun cols ->
              let ctx what =
                Printf.sprintf "p=%d cols=%d %s %s" p cols
                  (if max then "all p-1" else "uniform")
                  what
              in
              let a = Array.init cols (fun _ -> elt ())
              and b = Array.init cols (fun _ -> elt ()) in
              check_int (ctx "dot") (T.dot a b) (S.dot a b);
              let m = Array.init (rows * cols) (fun _ -> elt ()) in
              let dst0 = Array.init rows (fun _ -> elt ()) in
              List.iter
                (fun (row_lo, row_hi) ->
                  let d1 = Array.copy dst0 and d2 = Array.copy dst0 in
                  S.matvec_into ~m ~cols ~row_lo ~row_hi ~x:a ~dst:d1;
                  T.matvec_into ~m ~cols ~row_lo ~row_hi ~x:a ~dst:d2;
                  check_bool
                    (ctx (Printf.sprintf "matvec_into %d..%d" row_lo row_hi))
                    true (d1 = d2))
                ranges)
            lengths)
        [ false; true ])
    [ 2; 3; 97; 998244353; 1073741789 ]

(* the Barrett-reduced stubs at their largest operands: all-(p−1) inputs
   at the largest prime below 2^30, whose int64 blocks hold 8 products —
   CSR rows and matmul inner dimensions on both sides of a block end, and
   the elementwise primitives with a = p−1 *)
let test_barrett_worst_case () =
  let p = 1073741789 in
  let module F = (val Kp_field.Gfp.make p) in
  let module S = (val Kp_kernel.Gfp_cstub.make ~p) in
  let module D = Kp_kernel.Derived.Make (F) in
  let top = p - 1 in
  let same what x y =
    check_bool (Printf.sprintf "p-1 %s" what) true (x = y)
  in
  let len = 1000 in
  let x = Array.make len top in
  let run f =
    let d = Array.make len top in
    f d;
    d
  in
  same "axpy_into"
    (run (fun y -> S.axpy_into ~a:top ~x ~xoff:0 ~y ~yoff:0 ~len))
    (run (fun y -> D.axpy_into ~a:top ~x ~xoff:0 ~y ~yoff:0 ~len));
  same "scale_into"
    (run (fun dst -> S.scale_into ~a:top ~x ~xoff:0 ~dst ~doff:0 ~len))
    (run (fun dst -> D.scale_into ~a:top ~x ~xoff:0 ~dst ~doff:0 ~len));
  List.iter
    (fun (what, sf, df) ->
      same what
        (run (fun dst -> sf ~x ~xoff:0 ~y:x ~yoff:0 ~dst ~doff:0 ~len))
        (run (fun dst -> df ~x ~xoff:0 ~y:x ~yoff:0 ~dst ~doff:0 ~len)))
    [
      ("add_into", S.add_into, D.add_into);
      ("sub_into", S.sub_into, D.sub_into);
      ("pointwise_mul_into", S.pointwise_mul_into, D.pointwise_mul_into);
    ];
  let row_lens = [ 0; 1; 7; 8; 9; 16; 17; 100; 1000 ] in
  let n = List.length row_lens in
  let row_ptr = Array.make (n + 1) 0 in
  List.iteri (fun i l -> row_ptr.(i + 1) <- row_ptr.(i) + l) row_lens;
  let st = Kp_util.Rng.make 7 in
  let cols = Array.init row_ptr.(n) (fun _ -> Random.State.int st len) in
  let vals = Array.make row_ptr.(n) top in
  let csr (module K : Kp_kernel.Kernel_intf.KERNEL with type t = int) =
    let dst = Array.make n 0 in
    K.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo:0 ~row_hi:n ~x ~dst;
    dst
  in
  same "csr_matvec_into" (csr (module S)) (csr (module D));
  List.iter
    (fun inner ->
      let rows = 3 and bcols = 5 in
      let a = Array.make (rows * inner) top
      and b = Array.make (inner * bcols) top in
      let mm (module K : Kp_kernel.Kernel_intf.KERNEL with type t = int) =
        let dst = Array.make (rows * bcols) 0 in
        K.matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo:0 ~row_hi:rows;
        dst
      in
      same (Printf.sprintf "matmul_into inner=%d" inner) (mm (module S))
        (mm (module D)))
    [ 1; 7; 8; 9; 17; 300 ]

(* the pooled row-block product returns the words the sequential one does *)
let test_pool_identical () =
  let module F = Kp_field.Fields.Gf_ntt in
  let module M = Kp_matrix.Dense.Make (F) in
  List.iter
    (fun seed ->
      let st = Kp_util.Rng.make seed in
      let n = 33 + (seed mod 31) in
      let a = M.random st n n and b = M.random st n n in
      let mul_seq = M.mul a b in
      List.iter
        (fun domains ->
          Kp_util.Pool.with_pool ~domains (fun pool ->
              let lbl what =
                Printf.sprintf "%s seed=%d domains=%d" what seed domains
              in
              check_bool (lbl "mul_parallel") true
                (Array.for_all2 F.equal (M.mul_parallel pool a b).M.data
                   mul_seq.M.data)))
        Test_seeds.domain_counts)
    Test_seeds.shared_seeds

(* generic fields ride the derived kernel: results identical to the
   untouched Core loops *)
let derived_route_identical (type a) name
    (fm : (module Kp_field.Field_intf.FIELD with type t = a)) () =
  let module F = (val fm) in
  let module MC = Kp_matrix.Dense.Core (F) in
  let module M = Kp_matrix.Dense.Make (F) in
  List.iter
    (fun seed ->
      let st = Kp_util.Rng.make seed in
      List.iter
        (fun n ->
          let a = M.init n n (fun _ _ -> F.random st) in
          let b = M.init n n (fun _ _ -> F.random st) in
          let v = Array.init n (fun _ -> F.random st) in
          check_bool (Printf.sprintf "%s mul n=%d seed=%d" name n seed) true
            (Array.for_all2 F.equal (M.mul a b).M.data (MC.mul a b).MC.data);
          check_bool (Printf.sprintf "%s matvec n=%d seed=%d" name n seed) true
            (Array.for_all2 F.equal (M.matvec a v) (MC.matvec a v)))
        [ 1; 2; 7; 16 ])
    Test_seeds.shared_seeds

let test_gf2_8_derived = derived_route_identical "GF(2^8)" (module Test_seeds.Gf2_8)
let test_q_derived = derived_route_identical "Q" (module Kp_field.Rational)

(* the derived kernel is operation-faithful: routing the counting field
   through the kernel-dispatched call sites performs exactly the documented
   scalar operation pattern — the invariant the committed counting-field
   baseline (BENCH.json) gates end-to-end *)
let test_counting_op_counts () =
  let module Cnt = Kp_field.Counting.Make (Kp_field.Fields.Gf_ntt) in
  let module V = Kp_matrix.Vec.Make (Cnt) in
  let module CM = Kp_matrix.Dense.Make (Cnt) in
  let st = Kp_util.Rng.make 5 in
  let n = 17 in
  let a = Array.init n (fun _ -> Cnt.random st) in
  let b = Array.init n (fun _ -> Cnt.random st) in
  let _, c = Cnt.measure (fun () -> ignore (V.dot a b)) in
  check_int "dot muls = n" n c.Kp_field.Counting.multiplications;
  check_int "dot adds = n-1 (balanced)" (n - 1) c.Kp_field.Counting.additions;
  let module DK = Kp_kernel.Derived.Make (Cnt) in
  let _, c =
    Cnt.measure (fun () ->
        ignore (DK.dot_acc ~init:a.(0) ~x:a ~xoff:1 ~y:b ~yoff:0 ~len:(n - 1)))
  in
  check_int "dot_acc muls = len" (n - 1) c.Kp_field.Counting.multiplications;
  check_int "dot_acc adds = len (one onto init per product)" (n - 1)
    c.Kp_field.Counting.additions;
  let am = CM.init n n (fun _ _ -> Cnt.random st) in
  let bm = CM.init n n (fun _ _ -> Cnt.random st) in
  let v = Array.init n (fun _ -> Cnt.random st) in
  let _, c = Cnt.measure (fun () -> ignore (CM.matvec am v)) in
  check_int "matvec muls = n^2" (n * n) c.Kp_field.Counting.multiplications;
  check_int "matvec adds = n^2 (sequential rows)" (n * n)
    c.Kp_field.Counting.additions;
  let module CB = Kp_matrix.Blackbox.Make (Cnt) in
  let box = CB.of_dense am in
  let _, c = Cnt.measure (fun () -> ignore (CB.apply box v)) in
  check_int "prepared dense apply muls = n^2" (n * n)
    c.Kp_field.Counting.multiplications;
  check_int "prepared dense apply adds = n^2" (n * n)
    c.Kp_field.Counting.additions;
  let _, c = Cnt.measure (fun () -> ignore (CM.mul am bm)) in
  check_int "matmul muls = n^3" (n * n * n)
    c.Kp_field.Counting.multiplications;
  check_int "matmul adds = n^3 (i,k,j accumulate)" (n * n * n)
    c.Kp_field.Counting.additions;
  check_int "no divisions anywhere" 0 c.Kp_field.Counting.divisions

(* the derived network replays the preconditioner's diagonal scale and
   per-pair exchange: n multiplications, then 4 multiplications and 2
   additions per pair, so a counted apply of the butterfly preconditioner
   costs exactly n + 6·pairs, its advertised ops_per_apply *)
let test_counting_butterfly_ops () =
  let module Cnt = Kp_field.Counting.Make (Kp_field.Fields.Gf_ntt) in
  let module K = Kp_kernel.Derived.Make (Cnt) in
  let module CK = Kp_poly.Conv.Karatsuba (Cnt) in
  let module SP = Kp_precond.Precond.Make (Cnt) (CK) in
  let module Pc = Kp_precond.Precond in
  let total = Kp_field.Counting.total in
  let st = Kp_util.Rng.make 11 in
  List.iter
    (fun n ->
      let rec strides s = if s < n then s :: strides (2 * s) else [] in
      let pairs =
        List.fold_left
          (fun acc stride ->
            acc + Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride)
          0 (strides 1)
      in
      let d = Array.init n (fun _ -> Cnt.random st) in
      List.iter
        (fun stride ->
          let k = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
          let layer = random_layer ~elt:(fun () -> Cnt.random st) ~n stride in
          let net = K.butterfly_prepare ~d ~layers:[| layer |] in
          let src = Array.init n (fun _ -> Cnt.random st) in
          let dst = Array.make n Cnt.zero in
          List.iter
            (fun transpose ->
              let _, ops =
                Cnt.measure (fun () ->
                    K.butterfly_apply_into net ~transpose ~src ~dst)
              in
              check_int
                (Printf.sprintf "n=%d s=%d: n + 4 muls per pair" n stride)
                (n + (4 * k)) ops.Kp_field.Counting.multiplications;
              check_int
                (Printf.sprintf "n=%d s=%d: 2 adds per pair" n stride)
                (2 * k) ops.Kp_field.Counting.additions)
            [ false; true ])
        (strides 1);
      let p = SP.build ~card_s:4096 ~n Pc.Sparse_butterfly st in
      let v = Array.init n (fun _ -> Cnt.random st) in
      let advertised = Lazy.force p.Pc.ops_per_apply in
      check_int (Printf.sprintf "n=%d: ops_per_apply = n + 6·pairs" n)
        (n + (6 * pairs)) advertised;
      let _, ops = Cnt.measure (fun () -> ignore (p.Pc.apply v)) in
      check_int (Printf.sprintf "n=%d: counted apply = ops_per_apply" n)
        advertised (total ops);
      let _, ops = Cnt.measure (fun () -> ignore (p.Pc.apply_transpose v)) in
      check_int (Printf.sprintf "n=%d: counted transpose = ops_per_apply" n)
        advertised (total ops))
    [ 1; 2; 3; 5; 64; 100 ]

(* kernel.* counters: the instrumented dispatch ticks the backend it
   resolved, and the kernel.cstub.* meters advance exactly when a C-stub
   backend served the call — on GF(97), and not on its Generic twin *)
let test_counters_tick () =
  let find c = Option.value ~default:0 (Kp_obs.Counter.find c) in
  let tick name (module F : F_INT) ~backend =
    let hit = "kernel." ^ backend in
    let before = find hit and ops_before = find "kernel.bulk_ops" in
    let cc = find "kernel.cstub.calls"
    and cops = find "kernel.cstub.bulk_ops" in
    let module K =
      (val Dispatch.of_field
             (module F : Kp_field.Field_intf.FIELD with type t = int))
    in
    check_string (name ^ " resolves") backend K.backend;
    let a = Array.init 40 (fun i -> i mod 97) in
    ignore (K.dot a a);
    check_int (Printf.sprintf "%s: one bulk call ticked %s" name hit)
      (before + 1) (find hit);
    check_int (name ^ ": kernel.bulk_ops advanced by the element count")
      (ops_before + 40)
      (find "kernel.bulk_ops");
    let stub_served = Dispatch.is_cstub_backend backend in
    check_int
      (Printf.sprintf "%s: kernel.cstub.calls %s" name
         (if stub_served then "ticked" else "untouched"))
      (cc + if stub_served then 1 else 0)
      (find "kernel.cstub.calls");
    check_int
      (Printf.sprintf "%s: kernel.cstub.bulk_ops %s" name
         (if stub_served then "advanced" else "untouched"))
      (cops + if stub_served then 40 else 0)
      (find "kernel.cstub.bulk_ops")
  in
  let gf97 = (module Kp_field.Fields.Gf_97 : F_INT) in
  tick "GF(97)" gf97 ~backend:"gfp_cstub";
  tick "GF(97) twin" (Test_seeds.twin gf97) ~backend:"derived"

(* a prepared network is metered once per apply, by n + 4·Σpairs: one
   kernel.cstub.calls however many layers it has, and prepare ticks
   nothing *)
let test_network_meters () =
  let find c = Option.value ~default:0 (Kp_obs.Counter.find c) in
  let module F = Kp_field.Fields.Gf_97 in
  let module K =
    (val Dispatch.of_field
           (module F : Kp_field.Field_intf.FIELD with type t = int))
  in
  let st = Kp_util.Rng.make 3 in
  let elt () = F.random st in
  List.iter
    (fun n ->
      let rec strides s = if s < n then s :: strides (2 * s) else [] in
      let layers = Array.of_list (List.map (random_layer ~elt ~n) (strides 1)) in
      let pairs =
        Array.fold_left
          (fun acc { Kp_kernel.Kernel_intf.a; _ } -> acc + Array.length a)
          0 layers
      in
      let d = Array.init n (fun _ -> elt ()) in
      let src = Array.init n (fun _ -> elt ()) and dst = Array.make n 0 in
      let snap () =
        List.map find
          [ "kernel.cstub.calls"; "kernel.bulk_ops"; "kernel.cstub.bulk_ops" ]
      in
      let s0 = snap () in
      let net = K.butterfly_prepare ~d ~layers in
      check_bool (Printf.sprintf "n=%d: prepare ticks nothing" n) true
        (snap () = s0);
      List.iteri
        (fun i transpose ->
          K.butterfly_apply_into net ~transpose ~src ~dst;
          let per = n + (4 * pairs) in
          check_bool
            (Printf.sprintf "n=%d transpose=%b: one call, n + 4·pairs ops" n
               transpose)
            true
            (snap ()
            = List.map2 ( + ) s0 [ i + 1; (i + 1) * per; (i + 1) * per ]))
        [ false; true ])
    [ 1; 2; 37; 100 ]

(* a prepared dense operator is metered once per apply, by rows·cols —
   exactly a whole-matrix matvec_into — and prepare ticks nothing *)
let test_dense_meters () =
  let find c = Option.value ~default:0 (Kp_obs.Counter.find c) in
  let module F = Kp_field.Fields.Gf_97 in
  let module K =
    (val Dispatch.of_field
           (module F : Kp_field.Field_intf.FIELD with type t = int))
  in
  let st = Kp_util.Rng.make 5 in
  let snap () =
    List.map find
      [ "kernel.cstub.calls"; "kernel.bulk_ops"; "kernel.cstub.bulk_ops" ]
  in
  List.iter
    (fun (rows, cols) ->
      let m = Array.init (rows * cols) (fun _ -> F.random st) in
      let src = Array.init cols (fun _ -> F.random st)
      and dst = Array.make rows 0 in
      let s0 = snap () in
      let op = K.dense_prepare ~rows ~cols m in
      check_bool
        (Printf.sprintf "%dx%d: prepare ticks nothing" rows cols)
        true
        (snap () = s0);
      for i = 1 to 2 do
        K.dense_apply_into op ~src ~dst;
        check_bool
          (Printf.sprintf "%dx%d apply %d: one call, rows·cols ops" rows cols
             i)
          true
          (snap ()
          = List.map2 ( + ) s0 [ i; i * rows * cols; i * rows * cols ])
      done)
    [ (1, 1); (5, 37); (64, 64) ]

(* a prepared sparse operator is metered once per apply, by its entry
   count — exactly a csr_matvec_into over all rows, never a padded
   SELL-8 count — and prepare ticks nothing *)
let test_csr_meters () =
  let find c = Option.value ~default:0 (Kp_obs.Counter.find c) in
  let module F = Kp_field.Fields.Gf_97 in
  let module K =
    (val Dispatch.of_field
           (module F : Kp_field.Field_intf.FIELD with type t = int))
  in
  let st = Kp_util.Rng.make 9 in
  let snap () =
    List.map find
      [ "kernel.cstub.calls"; "kernel.bulk_ops"; "kernel.cstub.bulk_ops" ]
  in
  List.iter
    (fun lens ->
      let rows = List.length lens in
      let row_ptr = Array.make (rows + 1) 0 in
      List.iteri (fun i l -> row_ptr.(i + 1) <- row_ptr.(i) + l) lens;
      let nnz = row_ptr.(rows) in
      let cols = Array.init nnz (fun _ -> Random.State.int st 40) in
      let vals = Array.init nnz (fun _ -> F.random st) in
      let src = Array.init 40 (fun _ -> F.random st)
      and dst = Array.make rows 0 in
      let s0 = snap () in
      let op = K.csr_prepare ~row_ptr ~cols ~vals in
      check_bool
        (Printf.sprintf "%d rows: prepare ticks nothing" rows)
        true
        (snap () = s0);
      for i = 1 to 2 do
        K.csr_apply_into op ~src ~dst;
        check_bool
          (Printf.sprintf "%d rows, nnz %d, apply %d: one call, nnz ops" rows
             nnz i)
          true
          (snap () = List.map2 ( + ) s0 [ i; i * nnz; i * nnz ])
      done)
    [ [ 1 ]; [ 0; 3; 1 ]; [ 9; 1; 1; 1; 1; 1; 1; 1; 1; 2 ]; List.init 37 (fun i -> i) ]

(* the GF(p) prepared dense apply, butterfly network and sparse operator
   run their AVX-512 loops only where the CPU has them; the plain dense
   and butterfly bodies run on every host through their test entries *)
let () =
  match Kp_kernel.Cstub.gfp_isa () with
  | "avx512f" ->
    print_endline
      "kp_kernel: GF(p) prepared dense apply and butterfly network: AVX-512 \
       loops and plain bodies; prepared sparse operator: SELL-8 AVX-512 loop"
  | isa ->
    Printf.printf
      "kp_kernel: GF(p) prepared dense apply, butterfly network and sparse \
       operator: SKIP the AVX-512 loop (gfp_isa = %s), plain bodies and the \
       CSR loop only\n"
      isa

let () =
  Alcotest.run "kp_kernel"
    [
      ( "dispatch",
        [
          Alcotest.test_case "backend selection" `Quick test_backend_selection;
          Alcotest.test_case "hint-free fields stay derived" `Quick
            test_hint_free_fields;
          Alcotest.test_case "counters tick" `Quick test_counters_tick;
          Alcotest.test_case "network metered once per apply" `Quick
            test_network_meters;
          Alcotest.test_case "dense metered once per apply" `Quick
            test_dense_meters;
          Alcotest.test_case "csr metered once per apply" `Quick
            test_csr_meters;
        ] );
      ( "differential",
        Alcotest.test_case "edge sizes x all backends" `Quick
          test_differential_edges
        :: Alcotest.test_case "boundary values x straddle sizes" `Quick
             test_differential_boundary_values
        :: Alcotest.test_case "csr x route sizes" `Quick test_csr_route_sizes
        :: Alcotest.test_case "butterfly network x route sizes" `Quick
             test_butterfly_network_sizes
        :: Alcotest.test_case "dense x shapes" `Quick test_dense_shapes
        :: Alcotest.test_case "csr prepared x shapes" `Quick
             test_csr_prepared_shapes
        :: Alcotest.test_case "butterfly avx-512 x plain body" `Quick
             test_butterfly_bodies
        :: Alcotest.test_case "shoup quotient exact" `Quick
             test_shoup_quotient
        :: Alcotest.test_case "dot and matvec x row shapes x primes" `Quick
             test_dense_inner_products
        :: Alcotest.test_case "barrett stubs on all p-1" `Quick
             test_barrett_worst_case
        :: List.map
             (QCheck_alcotest.to_alcotest ~long:false)
             qcheck_differential );
      ( "pooled",
        [ Alcotest.test_case "pool == sequential" `Quick test_pool_identical ] );
      ( "derived route",
        [
          Alcotest.test_case "GF(2^8)" `Quick test_gf2_8_derived;
          Alcotest.test_case "Q" `Quick test_q_derived;
          Alcotest.test_case "counting op counts" `Quick
            test_counting_op_counts;
          Alcotest.test_case "counting butterfly ops" `Quick
            test_counting_butterfly_ops;
        ] );
    ]
