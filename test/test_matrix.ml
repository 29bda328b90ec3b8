(* Matrix substrate tests: dense arithmetic, Strassen/parallel vs classical,
   Gaussian elimination (PLU, det, inverse, rank, nullspace) against
   algebraic invariants, sparse CSR vs dense, black-box composition. *)

module F = Kp_field.Fields.Gf_ntt
module Q = Kp_field.Rational
module M = Kp_matrix.Dense.Make (F)
module MQ = Kp_matrix.Dense.Make (Q)
module G = Kp_matrix.Gauss.Make (F)
module GQ = Kp_matrix.Gauss.Make (Q)
module Sp = Kp_matrix.Sparse.Make (F)
module Bb = Kp_matrix.Blackbox.Make (F)
module V = Kp_matrix.Vec.Make (F)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let mat = Alcotest.testable M.pp M.equal
let check_mat = Alcotest.check mat

let fi = F.of_int
let m_of rows = M.of_arrays (Array.map (Array.map fi) rows)

let test_identity_mul () =
  let st = Random.State.make [| 1 |] in
  let a = M.random st 7 7 in
  check_mat "I*A = A" a (M.mul (M.identity 7) a);
  check_mat "A*I = A" a (M.mul a (M.identity 7))

let test_mul_known () =
  let a = m_of [| [| 1; 2 |]; [| 3; 4 |] |] in
  let b = m_of [| [| 5; 6 |]; [| 7; 8 |] |] in
  check_mat "2x2 product" (m_of [| [| 19; 22 |]; [| 43; 50 |] |]) (M.mul a b)

let test_mul_rectangular () =
  let a = m_of [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  let b = m_of [| [| 1 |]; [| 0 |]; [| 1 |] |] in
  check_mat "2x3 * 3x1" (m_of [| [| 4 |]; [| 10 |] |]) (M.mul a b);
  check_bool "inner mismatch rejected" true
    (try ignore (M.mul a a); false with Invalid_argument _ -> true)

let test_strassen_matches () =
  let st = Random.State.make [| 2 |] in
  List.iter
    (fun n ->
      let a = M.random st n n and b = M.random st n n in
      check_mat
        (Printf.sprintf "strassen n=%d" n)
        (M.mul a b)
        (M.mul_strassen ~cutoff:8 a b))
    [ 1; 2; 7; 16; 24; 33; 64 ]

let test_parallel_matches () =
  let st = Random.State.make [| 3 |] in
  Kp_util.Pool.with_pool ~domains:4 (fun pool ->
      let a = M.random st 50 70 and b = M.random st 70 30 in
      check_mat "parallel = classical" (M.mul a b) (M.mul_parallel pool a b))

let test_transpose () =
  let a = m_of [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  check_mat "transpose" (m_of [| [| 1; 4 |]; [| 2; 5 |]; [| 3; 6 |] |]) (M.transpose a);
  let st = Random.State.make [| 4 |] in
  let x = M.random st 9 9 and y = M.random st 9 9 in
  check_mat "(xy)^T = y^T x^T" (M.transpose (M.mul x y))
    (M.mul (M.transpose y) (M.transpose x))

let test_matvec_vecmat () =
  let a = m_of [| [| 1; 2 |]; [| 3; 4 |] |] in
  let v = [| fi 1; fi 1 |] in
  check_bool "matvec" true (M.matvec a v = [| fi 3; fi 7 |]);
  check_bool "vecmat" true (M.vecmat v a = [| fi 4; fi 6 |]);
  (* vecmat v a = (A^T v) *)
  let st = Random.State.make [| 5 |] in
  let m = M.random st 6 6 and w = Array.init 6 (fun _ -> F.random st) in
  check_bool "vecmat = transpose matvec" true
    (M.vecmat w m = M.matvec (M.transpose m) w)

let test_vec_ops () =
  let x = [| fi 1; fi 2 |] and y = [| fi 10; fi 20 |] in
  check_bool "dot" true (F.equal (V.dot x y) (fi 50));
  check_bool "axpy" true (V.axpy (fi 3) x y = [| fi 13; fi 26 |]);
  check_bool "basis" true (V.basis 3 1 = [| F.zero; F.one; F.zero |])

(* ---- Gauss ---- *)

let test_plu_reconstructs () =
  let st = Random.State.make [| 6 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 12 in
    let a = M.random st n n in
    let { G.perm; lower; upper; _ } = G.plu a in
    let pa = M.init n n (fun i j -> M.get a perm.(i) j) in
    check_mat "P A = L U" pa (M.mul lower upper)
  done

let test_det_known () =
  check_bool "det [[1,2],[3,4]] = -2" true
    (F.equal (G.det (m_of [| [| 1; 2 |]; [| 3; 4 |] |])) (fi (-2)));
  check_bool "det singular" true (F.is_zero (G.det (m_of [| [| 1; 2 |]; [| 2; 4 |] |])));
  check_bool "det identity" true (F.equal (G.det (M.identity 5)) F.one);
  check_bool "det swap rows = -1" true
    (F.equal (G.det (m_of [| [| 0; 1 |]; [| 1; 0 |] |])) (fi (-1)))

let test_det_multiplicative () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 8 in
    let a = M.random st n n and b = M.random st n n in
    check_bool "det(ab) = det a det b" true
      (F.equal (G.det (M.mul a b)) (F.mul (G.det a) (G.det b)))
  done

let test_det_transpose () =
  let st = Random.State.make [| 8 |] in
  let a = M.random st 9 9 in
  check_bool "det A = det A^T" true (F.equal (G.det a) (G.det (M.transpose a)))

let test_inverse () =
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 10 in
    let a = M.random_nonsingular st n in
    match G.inverse a with
    | None -> Alcotest.fail "random_nonsingular was singular"
    | Some ai ->
      check_mat "A A^-1 = I" (M.identity n) (M.mul a ai);
      check_mat "A^-1 A = I" (M.identity n) (M.mul ai a)
  done;
  check_bool "singular has no inverse" true
    (G.inverse (m_of [| [| 1; 2 |]; [| 2; 4 |] |]) = None)

let test_rank () =
  let st = Random.State.make [| 10 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int st 10 in
    let r = Random.State.int st (n + 1) in
    let a = M.random_of_rank st n ~rank:r in
    check_int (Printf.sprintf "rank %d of %d" r n) r (G.rank a)
  done;
  check_int "rank 0" 0 (G.rank (M.make 4 4));
  check_int "rank identity" 6 (G.rank (M.identity 6));
  check_int "rank rectangular" 2 (G.rank (m_of [| [| 1; 0; 0 |]; [| 0; 1; 0 |] |]))

let test_solve () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 10 in
    let a = M.random_nonsingular st n in
    let x = Array.init n (fun _ -> F.random st) in
    let b = M.matvec a x in
    match G.solve a b with
    | None -> Alcotest.fail "solve failed on non-singular"
    | Some x' -> check_bool "solution recovered" true (x = x')
  done;
  check_bool "singular solve" true
    (G.solve (m_of [| [| 1; 1 |]; [| 1; 1 |] |]) [| F.one; F.zero |] = None)

let test_nullspace () =
  let st = Random.State.make [| 12 |] in
  for _ = 1 to 10 do
    let n = 3 + Random.State.int st 8 in
    let r = Random.State.int st n in
    let a = M.random_of_rank st n ~rank:r in
    let ns = G.nullspace a in
    check_int "nullity = n - r" (n - r) (List.length ns);
    List.iter
      (fun v ->
        check_bool "A v = 0" true (Array.for_all F.is_zero (M.matvec a v)))
      ns;
    (* independence: stack basis as columns, rank must equal nullity *)
    if ns <> [] then begin
      let b = M.init n (List.length ns) (fun i j -> (List.nth ns j).(i)) in
      check_int "basis independent" (List.length ns) (G.rank b)
    end
  done

let test_solve_general () =
  (* consistent singular system *)
  let a = m_of [| [| 1; 1 |]; [| 2; 2 |] |] in
  (match G.solve_general a [| fi 3; fi 6 |] with
  | None -> Alcotest.fail "consistent system reported inconsistent"
  | Some x -> check_bool "Ax = b" true (M.matvec a x = [| fi 3; fi 6 |]));
  (* inconsistent *)
  check_bool "inconsistent detected" true (G.solve_general a [| fi 3; fi 7 |] = None);
  (* rectangular underdetermined *)
  let r = m_of [| [| 1; 2; 3 |] |] in
  (match G.solve_general r [| fi 6 |] with
  | None -> Alcotest.fail "underdetermined"
  | Some x -> check_bool "Ax = b (rect)" true (M.matvec r x = [| fi 6 |]))

let test_gauss_over_q () =
  (* Hilbert 4x4: det = 1/6048000, exactly *)
  let h = MQ.init 4 4 (fun i j -> Q.of_ints 1 (i + j + 1)) in
  check_bool "Hilbert det" true (Q.equal (GQ.det h) (Q.of_ints 1 6048000));
  match GQ.inverse h with
  | None -> Alcotest.fail "Hilbert is non-singular"
  | Some hi ->
    check_bool "H H^-1 = I" true (MQ.equal (MQ.mul h hi) (MQ.identity 4));
    (* known corner entry of inv(Hilbert 4): 16 *)
    check_bool "inv[0][0] = 16" true (Q.equal (MQ.get hi 0 0) (Q.of_int 16))

(* ---- sparse ---- *)

let test_sparse_roundtrip () =
  let st = Random.State.make [| 13 |] in
  let s = Sp.random st 15 12 ~density:0.2 in
  let d = Sp.to_dense s in
  let s2 = Sp.of_dense d in
  check_int "nnz preserved" (Sp.nnz s) (Sp.nnz s2);
  check_mat "roundtrip" d (Sp.to_dense s2)

let test_sparse_matvec () =
  let st = Random.State.make [| 14 |] in
  for _ = 1 to 10 do
    let s = Sp.random st 20 17 ~density:0.15 in
    let d = Sp.to_dense s in
    let v = Array.init 17 (fun _ -> F.random st) in
    check_bool "matvec agrees" true (Sp.matvec s v = M.matvec d v);
    let w = Array.init 20 (fun _ -> F.random st) in
    check_bool "transpose matvec agrees" true
      (Sp.matvec_transpose s w = M.matvec (M.transpose d) w)
  done

let test_sparse_duplicates () =
  let s = Sp.of_triplets ~rows:2 ~cols:2 [ (0, 0, fi 1); (0, 0, fi 2); (1, 1, fi 5) ] in
  check_bool "duplicates summed" true (F.equal (Sp.get s 0 0) (fi 3));
  check_int "nnz after merge" 2 (Sp.nnz s);
  let z = Sp.of_triplets ~rows:2 ~cols:2 [ (0, 1, fi 3); (0, 1, fi (-3)) ] in
  check_int "cancellation dropped" 0 (Sp.nnz z)

let test_sparse_nonsingular () =
  let st = Random.State.make [| 15 |] in
  for _ = 1 to 5 do
    let s = Sp.random_nonsingular st 25 ~density:0.1 in
    check_bool "det nonzero" true (not (F.is_zero (G.det (Sp.to_dense s))))
  done

let test_strassen_odd_padding () =
  let st = Random.State.make [| 20 |] in
  (* odd sizes above the cutoff exercise the padding branch *)
  List.iter
    (fun n ->
      let a = M.random st n n and b = M.random st n n in
      check_mat
        (Printf.sprintf "strassen padded n=%d" n)
        (M.mul a b)
        (M.mul_strassen ~cutoff:4 a b))
    [ 5; 9; 17; 31 ]

let test_sparse_get () =
  let s = Sp.of_triplets ~rows:3 ~cols:3 [ (0, 2, fi 7); (2, 0, fi 9) ] in
  check_bool "get present" true (F.equal (Sp.get s 0 2) (fi 7));
  check_bool "get absent" true (F.is_zero (Sp.get s 1 1))

(* ---- blackbox ---- *)

let test_blackbox_dense () =
  let st = Random.State.make [| 16 |] in
  let a = M.random st 9 9 in
  let bb = Bb.of_dense a in
  check_mat "to_dense inverts of_dense" a (Bb.to_dense bb);
  let v = Array.init 9 (fun _ -> F.random st) in
  check_bool "transpose apply" true
    ((Option.get bb.Bb.apply_transpose) v = M.matvec (M.transpose a) v)

let test_blackbox_compose () =
  let st = Random.State.make [| 17 |] in
  let a = M.random st 8 8 and b = M.random st 8 8 in
  let c = Bb.compose (Bb.of_dense a) (Bb.of_dense b) in
  check_mat "compose = product" (M.mul a b) (Bb.to_dense c)

let test_blackbox_scale_columns () =
  let st = Random.State.make [| 18 |] in
  let a = M.random st 6 6 in
  let d = Array.init 6 (fun _ -> F.random st) in
  let scaled = Bb.scale_columns (Bb.of_dense a) d in
  check_mat "A Diag(d)" (M.mul a (M.diag d)) (Bb.to_dense scaled)

(* apply_into into a dirty destination = the allocating apply = a
   reference built from the components, for every constructor, twice in a
   row (composed boxes reuse their buffer), with the source untouched.
   n = 37 takes of_dense's prepared apply through whole 16-column blocks
   and a ragged row pass as well. *)
let blackbox_apply_into (type a) name
    (module Fx : Kp_field.Field_intf.FIELD with type t = a) () =
  let module Mx = Kp_matrix.Dense.Make (Fx) in
  let module Spx = Kp_matrix.Sparse.Make (Fx) in
  let module Bbx = Kp_matrix.Blackbox.Make (Fx) in
  let st = Kp_util.Rng.make 19 in
  let same = Array.for_all2 Fx.equal in
  let check_at n =
    let rand () = Array.init n (fun _ -> Fx.random st) in
    let a = Mx.random st n n and b = Mx.random st n n in
    let s = Spx.random st n n ~density:0.3 in
    let d = rand () in
    let boxes =
      [
        ("of_dense", Bbx.of_dense a, Mx.matvec a);
        ("of_sparse", Bbx.of_sparse s, Spx.matvec s);
        ("of_fun", Bbx.of_fun n (Mx.matvec b), Mx.matvec b);
        ( "compose",
          Bbx.compose (Bbx.of_dense a) (Bbx.of_sparse s),
          fun v -> Mx.matvec a (Spx.matvec s v) );
        ( "scale_columns",
          Bbx.scale_columns (Bbx.of_dense a) d,
          fun v -> Mx.matvec a (Array.map2 Fx.mul d v) );
        ("identity", Bbx.identity n, Array.copy);
        ( "instrument",
          Bbx.instrument (Bbx.compose (Bbx.of_sparse s) (Bbx.of_dense b)),
          fun v -> Spx.matvec s (Mx.matvec b v) );
      ]
    in
    List.iter
      (fun (what, bb, reference) ->
        for round = 1 to 2 do
          let v = rand () in
          let v0 = Array.copy v and dst = rand () in
          bb.Bbx.apply_into v dst;
          let ctx = Printf.sprintf "%s %s n=%d round %d" name what n round in
          check_bool (ctx ^ ": apply_into = apply") true
            (same dst (Bbx.apply bb v));
          check_bool (ctx ^ ": = reference") true (same dst (reference v));
          check_bool (ctx ^ ": source untouched") true (same v v0)
        done)
      boxes
  in
  List.iter check_at [ 11; 37 ]

(* the dense black box of a GF(p) solve applies its prepared operator into
   a reused buffer without allocating a heap word *)
let test_blackbox_dense_allocates_nothing () =
  let words f = snd (Test_seeds.allocated_words f) in
  let n = 512 in
  let st = Kp_util.Rng.make 23 in
  let bb = Bb.of_dense (M.random st n n) in
  let v = Array.init n (fun _ -> F.random st) in
  let dst = Array.make n F.zero in
  bb.Bb.apply_into v dst;
  let idle = words (fun () -> ()) in
  let used =
    words (fun () ->
        for _ = 1 to 1000 do
          bb.Bb.apply_into v dst
        done)
  in
  Alcotest.(check (float 0.)) "1000 applies at n = 512: no heap words" idle used

let () =
  Alcotest.run "kp_matrix"
    [
      ( "dense",
        [
          Alcotest.test_case "identity" `Quick test_identity_mul;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "rectangular" `Quick test_mul_rectangular;
          Alcotest.test_case "strassen matches" `Quick test_strassen_matches;
          Alcotest.test_case "parallel matches" `Quick test_parallel_matches;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "matvec/vecmat" `Quick test_matvec_vecmat;
          Alcotest.test_case "vector ops" `Quick test_vec_ops;
        ] );
      ( "gauss",
        [
          Alcotest.test_case "PLU reconstructs" `Quick test_plu_reconstructs;
          Alcotest.test_case "det known values" `Quick test_det_known;
          Alcotest.test_case "det multiplicative" `Quick test_det_multiplicative;
          Alcotest.test_case "det transpose" `Quick test_det_transpose;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "nullspace" `Quick test_nullspace;
          Alcotest.test_case "solve_general" `Quick test_solve_general;
          Alcotest.test_case "exact over Q (Hilbert)" `Quick test_gauss_over_q;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "matvec" `Quick test_sparse_matvec;
          Alcotest.test_case "duplicate triplets" `Quick test_sparse_duplicates;
          Alcotest.test_case "random_nonsingular" `Quick test_sparse_nonsingular;
          Alcotest.test_case "strassen odd padding" `Quick test_strassen_odd_padding;
          Alcotest.test_case "get" `Quick test_sparse_get;
        ] );
      ( "blackbox",
        [
          Alcotest.test_case "of_dense/to_dense" `Quick test_blackbox_dense;
          Alcotest.test_case "compose" `Quick test_blackbox_compose;
          Alcotest.test_case "scale_columns" `Quick test_blackbox_scale_columns;
          Alcotest.test_case "apply_into GF(p)" `Quick
            (blackbox_apply_into "GF(p)" (module F));
          Alcotest.test_case "apply_into GF(2)" `Quick
            (blackbox_apply_into "GF(2)" (module Kp_field.Fields.Gf2));
          Alcotest.test_case "apply_into GF(p) twin" `Quick
            (blackbox_apply_into "GF(p) twin" (Test_seeds.twin (module F)));
          Alcotest.test_case "of_dense apply_into allocates nothing" `Quick
            test_blackbox_dense_allocates_nothing;
        ] );
    ]
