(* End-to-end tests of the Kaltofen–Pan solver: Theorem 4 (solve/det),
   Theorem 6 (inverse via Baur–Strassen), §4 (transposed systems), §5
   (rank, nullspace, singular systems, least squares, small
   characteristic), always against the Gaussian-elimination oracle. *)

module F = Kp_field.Fields.Gf_ntt
module Q = Kp_field.Rational
module CK = Kp_poly.Conv.Karatsuba (F)
module CKQ = Kp_poly.Conv.Karatsuba (Q)
module M = Kp_matrix.Dense.Make (F)
module MQ = Kp_matrix.Dense.Make (Q)
module G = Kp_matrix.Gauss.Make (F)
module GQ = Kp_matrix.Gauss.Make (Q)
module P = Kp_core.Pipeline.Make (F) (CK)
module S = Kp_core.Solver.Make (F) (CK)
module SQ = Kp_core.Solver.Make (Q) (CKQ)
module KR = Kp_core.Krylov.Make (F)
module Inv = Kp_core.Inverse.Make (F) (CK)
module Tr = Kp_core.Transpose.Make (F) (CK)
module Rk = Kp_core.Rank.Make (F) (CK)
module Ns = Kp_core.Nullspace.Make (F) (CK)
module Lsq = Kp_core.Least_squares.Make (Q) (CKQ)
module BM = Kp_seqgen.Berlekamp_massey.Make (F)
module W = Kp_core.Wiedemann.Make (F)
module Lev = Kp_structured.Leverrier.Make (F)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let mat = Alcotest.testable M.pp M.equal
let check_mat = Alcotest.check mat
let feq = F.equal
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 feq a b

let st0 k = Kp_util.Rng.make (1000 + k)

(* ---- Krylov ---- *)

let test_krylov_doubling_vs_sequential () =
  let st = st0 1 in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 12 in
    let m = 1 + Random.State.int st (2 * n) in
    let a = M.random st n n in
    let v = Array.init n (fun _ -> F.random st) in
    let k1 = KR.columns ~mul:KR.M.mul a v m in
    let k2 = KR.columns_sequential a v m in
    check_mat "doubling = sequential" k1 k2
  done

let test_krylov_columns_are_powers () =
  let st = st0 2 in
  let n = 7 and m = 11 in
  let a = M.random st n n in
  let v = Array.init n (fun _ -> F.random st) in
  let k = KR.columns ~mul:KR.M.mul a v m in
  let cur = ref v in
  for j = 0 to m - 1 do
    check_bool (Printf.sprintf "column %d" j) true (farr_eq (M.col k j) !cur);
    cur := M.matvec a !cur
  done

(* ---- pipeline generator ---- *)

let test_minimal_generator_is_charpoly () =
  let st = st0 3 in
  let confirmed = ref 0 in
  for _ = 1 to 12 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random_nonsingular st n in
    let u = Array.init n (fun _ -> F.random st) in
    let v = Array.init n (fun _ -> F.random st) in
    let cols = KR.columns ~mul:KR.M.mul a v (2 * n) in
    let seq = KR.sequence ~u cols in
    match
      P.minimal_generator ~generator:(P.Toeplitz P.charpoly_leverrier)
        ~strategy:P.Doubling ~n seq
    with
    | exception Division_by_zero -> () (* unlucky draw *)
    | f ->
      if BM.generates f seq then begin
        incr confirmed;
        (* compare against the true characteristic polynomial of A *)
        let s = Lev.power_sums_of_dense ~mul:M.mul a in
        let cp = Lev.newton_identities ~n s in
        check_bool "generator = charpoly(A)" true (farr_eq f cp)
      end
  done;
  check_bool "mostly confirmed" true (!confirmed >= 8)

let test_minimal_generator_strategies_agree () =
  let st = st0 4 in
  for _ = 1 to 8 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random_nonsingular st n in
    let u = Array.init n (fun _ -> F.random st) in
    let v = Array.init n (fun _ -> F.random st) in
    let seq = KR.sequence ~u (KR.columns ~mul:KR.M.mul a v (2 * n)) in
    match
      let generator = P.Toeplitz P.charpoly_leverrier in
      ( P.minimal_generator ~generator ~strategy:P.Doubling ~n seq,
        P.minimal_generator ~generator ~strategy:P.Sequential ~n seq )
    with
    | exception Division_by_zero -> ()
    | f1, f2 -> check_bool "strategies agree" true (farr_eq f1 f2)
  done

(* ---- Theorem 4: solve ---- *)

let test_solve_matches_gauss () =
  let st = st0 5 in
  for _ = 1 to 12 do
    let n = 1 + Random.State.int st 16 in
    let a = M.random_nonsingular st n in
    let x_true = Array.init n (fun _ -> F.random st) in
    let b = M.matvec a x_true in
    match S.solve st a b with
    | Ok (x, report) ->
      check_bool "solution correct" true (farr_eq x x_true);
      check_bool "few attempts" true (report.S.O.attempts <= 5)
    | Error _ -> Alcotest.fail "solver failed on non-singular input"
  done

let test_solve_sequential_strategy () =
  let st = st0 6 in
  let n = 10 in
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  match S.solve ~strategy:P.Sequential st a b with
  | Ok (x, _) -> check_bool "sequential strategy" true (farr_eq x x_true)
  | Error _ -> Alcotest.fail "solver failed"

let test_solve_with_pool () =
  Kp_util.Pool.with_pool ~domains:2 (fun pool ->
      let st = st0 27 in
      let n = 12 in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec a x_true in
      match S.solve ~pool st a b with
      | Ok (x, _) -> check_bool "pool-parallel solve" true (farr_eq x x_true)
      | Error _ -> Alcotest.fail "pool solve failed")

let test_solve_larger_ntt () =
  (* medium-scale integration soak with the fast multiplier *)
  let module NK = Kp_poly.Conv.Ntt_generic (F) (Kp_poly.Conv.Default_ntt_prime) in
  let module SN = Kp_core.Solver.Make (F) (NK) in
  let st = st0 28 in
  let n = 40 in
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  (match SN.solve st a b with
  | Ok (x, _) -> check_bool "n=40 NTT solve" true (farr_eq x x_true)
  | Error _ -> Alcotest.fail "solver failed");
  match SN.det st a with
  | Ok (d, _) -> check_bool "n=40 NTT det" true (feq d (G.det a))
  | Error _ -> Alcotest.fail "det failed"

let test_solve_singular_detected () =
  let st = st0 7 in
  for _ = 1 to 5 do
    let n = 3 + Random.State.int st 6 in
    let a = M.random_of_rank st n ~rank:(n - 1) in
    (* b outside the column space, usually *)
    let b = Array.init n (fun _ -> F.random st) in
    match S.solve ~retries:6 st a b with
    | Ok (x, _) ->
      (* consistent by luck: solution must verify *)
      check_bool "verified" true (farr_eq (M.matvec a x) b)
    | Error (S.O.Singular _) -> ()
    | Error (S.O.Retries_exhausted _) -> ()
    | Error e -> Alcotest.fail (S.O.error_to_string e)
  done

let test_det_matches_gauss () =
  let st = st0 8 in
  for _ = 1 to 12 do
    let n = 1 + Random.State.int st 14 in
    let a = M.random st n n in
    match S.det st a with
    | Ok (d, _) -> check_bool "det = Gauss" true (feq d (G.det a))
    | Error _ -> Alcotest.fail "det failed"
  done

let test_det_singular_zero () =
  let st = st0 9 in
  for _ = 1 to 5 do
    let n = 3 + Random.State.int st 6 in
    let a = M.random_of_rank st n ~rank:(n - 2) in
    match S.det st a with
    | Ok (d, _) -> check_bool "det 0" true (F.is_zero d)
    | Error _ -> Alcotest.fail "det of singular should certify zero"
  done

let test_det_identity_and_diag () =
  let st = st0 10 in
  (match S.det st (M.identity 8) with
  | Ok (d, _) -> check_bool "det I = 1" true (feq d F.one)
  | Error _ -> Alcotest.fail "det failed");
  let dvals = Array.init 6 (fun i -> F.of_int (i + 2)) in
  let expected = Array.fold_left F.mul F.one dvals in
  match S.det st (M.diag dvals) with
  | Ok (d, _) -> check_bool "det diag" true (feq d expected)
  | Error _ -> Alcotest.fail "det failed"

(* ---- small characteristic (§5) ---- *)

let test_solve_small_characteristic () =
  let module E = Kp_field.Fields.Gf2_16 in
  let module CE = Kp_poly.Conv.Karatsuba (E) in
  let module ME = Kp_matrix.Dense.Make (E) in
  let module SE = Kp_core.Solver.Make (E) (CE) in
  let st = st0 11 in
  for _ = 1 to 5 do
    let n = 2 + Random.State.int st 7 in
    let a = ME.random_nonsingular st n in
    let x_true = Array.init n (fun _ -> E.random st) in
    let b = ME.matvec a x_true in
    match SE.solve st a b with
    | Ok (x, _) ->
      check_bool "GF(2^16) solution" true (Array.for_all2 E.equal x x_true)
    | Error _ -> Alcotest.fail "solver failed over GF(2^16)"
  done

let test_det_small_characteristic () =
  let module E = Kp_field.Fields.Gf2_16 in
  let module CE = Kp_poly.Conv.Karatsuba (E) in
  let module ME = Kp_matrix.Dense.Make (E) in
  let module GE = Kp_matrix.Gauss.Make (E) in
  let module SE = Kp_core.Solver.Make (E) (CE) in
  let st = st0 12 in
  for _ = 1 to 5 do
    let n = 2 + Random.State.int st 6 in
    let a = ME.random st n n in
    match SE.det st a with
    | Ok (d, _) -> check_bool "GF(2^16) det" true (E.equal d (GE.det a))
    | Error _ -> Alcotest.fail "det failed over GF(2^16)"
  done

(* ---- characteristic zero, exact ---- *)

let test_solve_exact_rationals () =
  let st = st0 13 in
  let n = 6 in
  (* Hilbert-like exactly representable system *)
  let a = MQ.init n n (fun i j -> Q.of_ints 1 (i + j + 1)) in
  let x_true = Array.init n (fun i -> Q.of_ints (i + 1) 3) in
  let b = MQ.matvec a x_true in
  match SQ.solve ~card_s:1000 st a b with
  | Ok (x, _) -> check_bool "exact Q solution" true (Array.for_all2 Q.equal x x_true)
  | Error _ -> Alcotest.fail "solver failed over Q"

let test_det_exact_rationals () =
  let st = st0 14 in
  let a = MQ.init 4 4 (fun i j -> Q.of_ints 1 (i + j + 1)) in
  match SQ.det ~card_s:1000 st a with
  | Ok (d, _) -> check_bool "Hilbert det" true (Q.equal d (Q.of_ints 1 6048000))
  | Error _ -> Alcotest.fail "det failed over Q"

(* ---- Wiedemann sequential baseline ---- *)

let test_wiedemann_minpoly () =
  let st = st0 15 in
  for _ = 1 to 8 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random_nonsingular st n in
    let f = W.minimal_polynomial st (W.Bb.of_dense a) in
    (* f divides charpoly: check f(A)·b = 0 on fresh random b *)
    let deg = Array.length f - 1 in
    let b = Array.init n (fun _ -> F.random st) in
    let acc = ref (Array.make n F.zero) in
    let w = ref b in
    for k = 0 to deg do
      acc := Array.mapi (fun i ai -> F.add ai (F.mul f.(k) !w.(i))) !acc;
      if k < deg then w := M.matvec a !w
    done;
    check_bool "f(A) b = 0" true (Array.for_all F.is_zero !acc)
  done

(* ---- Theorem 6: inverse ---- *)

let test_inverse_autodiff () =
  let st = st0 16 in
  for _ = 1 to 3 do
    let n = 2 + Random.State.int st 4 in
    let a = M.random_nonsingular st n in
    match Inv.inverse st a with
    | Ok (inv, _) -> check_mat "Theorem 6 inverse" (Option.get (G.inverse a)) inv
    | Error e -> Alcotest.fail (Inv.O.error_to_string e)
  done

let test_inverse_via_solves () =
  let st = st0 17 in
  let n = 8 in
  let a = M.random_nonsingular st n in
  match Inv.inverse_via_solves st a with
  | Ok (inv, report) ->
    check_mat "inverse via solves" (Option.get (G.inverse a)) inv;
    (* the report accumulates one successful attempt per column at least *)
    check_bool "accumulated attempts >= n" true (report.Inv.O.attempts >= n)
  | Error e -> Alcotest.fail (Inv.O.error_to_string e)

let test_inverse_singular_rejected () =
  let st = st0 18 in
  let a = M.random_of_rank st 5 ~rank:3 in
  (match Inv.inverse ~retries:3 st a with
  | Ok _ -> Alcotest.fail "inverted a singular matrix"
  | Error _ -> ());
  match Inv.inverse_via_solves ~retries:3 st a with
  | Ok _ -> Alcotest.fail "inverted a singular matrix (solves)"
  | Error _ -> ()

let test_det_circuit_shape () =
  let c = Inv.det_circuit ~n:4 ~charpoly:`Leverrier in
  check_int "inputs = n^2" 16 (Kp_circuit.Circuit.num_inputs c);
  check_int "random nodes = 5n-1" 19 (Kp_circuit.Circuit.num_random c);
  let s = Kp_circuit.Circuit.stats c in
  check_bool "nontrivial size" true (s.Kp_circuit.Circuit.size > 100)

(* ---- §4: transposed systems ---- *)

let test_transpose_solve () =
  let st = st0 19 in
  for _ = 1 to 3 do
    let n = 2 + Random.State.int st 4 in
    let a = M.random_nonsingular st n in
    let x_true = Array.init n (fun _ -> F.random st) in
    let b = M.matvec (M.transpose a) x_true in
    match Tr.solve_transposed st a b with
    | Ok (x, _) -> check_bool "transposed solution" true (farr_eq x x_true)
    | Error e -> Alcotest.fail (Tr.O.error_to_string e)
  done

let test_transpose_length_ratio () =
  let r_size, r_depth = Tr.length_ratio ~n:6 in
  check_bool (Printf.sprintf "size ratio %.2f <= 4.1" r_size) true (r_size <= 4.1);
  check_bool (Printf.sprintf "depth ratio %.2f bounded" r_depth) true (r_depth <= 3.5)

(* ---- §5: rank / nullspace / singular / least squares ---- *)

let test_rank_matches_gauss () =
  let st = st0 20 in
  for _ = 1 to 6 do
    let n = 2 + Random.State.int st 7 in
    let r = Random.State.int st (n + 1) in
    let a = M.random_of_rank st n ~rank:r in
    match Rk.rank st a with
    | Ok rk -> check_int (Printf.sprintf "rank %d/%d" r n) (G.rank a) rk
    | Error e -> Alcotest.fail (Kp_robust.Outcome.error_to_string e)
  done

let test_rank_error_is_not_a_verdict () =
  (* over GF(2) the sample set is {0, 1}: on this seed the first minor the
     search tests (the 2×2 of a non-singular 4×4) exhausts its 6-attempt
     det budget.  That says nothing about the minor, so the rank stops
     with the typed error — reading it as "singular" answered 0 *)
  let module F2 = Kp_field.Gf2 in
  let module C2 = Kp_poly.Conv.Karatsuba (F2) in
  let module M2 = Kp_matrix.Dense.Make (F2) in
  let module R2 = Kp_core.Rank.Make (F2) (C2) in
  let precond = Kp_precond.Precond.(Forced Dense_hd) in
  let a = M2.random_nonsingular (Kp_util.Rng.make 2) 4 in
  let expect what = function
    | Error (Kp_robust.Outcome.Retries_exhausted _) -> ()
    | Ok r -> Alcotest.failf "%s: rank %d from a failed minor (true rank 4)" what r
    | Error e ->
      Alcotest.failf "%s: %s" what (Kp_robust.Outcome.error_to_string e)
  in
  expect "scalar" (R2.rank ~precond (Kp_util.Rng.make 1002) a)

let test_rank_precondition_threads_card_s () =
  (* regression: precondition used to accept ?card_s and silently drop it.
     With card_s = 1 the sample set is {0}, so the unit-triangular factors
     are exactly the identity — deterministic proof the parameter reaches
     the sampler. *)
  let st = st0 29 in
  let n = 6 in
  let a = M.random_nonsingular st n in
  let pre = Rk.precondition st ~card_s:1 a in
  check_mat "U = I when card_s = 1" (M.identity n) pre.Rk.u_mat;
  check_mat "V = I when card_s = 1" (M.identity n) pre.Rk.v_mat;
  check_mat "A_hat = A when card_s = 1" a pre.Rk.a_hat;
  (* and with a real sample set the factors are (whp) not the identity *)
  let pre2 = Rk.precondition st ~card_s:64 a in
  check_bool "U <> I when card_s = 64" false (M.equal (M.identity n) pre2.Rk.u_mat)

let test_nullspace () =
  let st = st0 21 in
  for _ = 1 to 5 do
    let n = 3 + Random.State.int st 5 in
    let r = 1 + Random.State.int st (n - 1) in
    let a = M.random_of_rank st n ~rank:r in
    match Ns.nullspace st a with
    | Error e -> Alcotest.fail (Ns.O.error_to_string e)
    | Ok basis ->
      check_int "nullity" (n - r) (List.length basis);
      List.iter
        (fun v -> check_bool "A v = 0" true (Array.for_all F.is_zero (M.matvec a v)))
        basis;
      if basis <> [] then begin
        let bmat = M.init n (List.length basis) (fun i j -> (List.nth basis j).(i)) in
        check_int "independent" (List.length basis) (G.rank bmat)
      end
  done

let test_nullspace_nonsingular_empty () =
  let st = st0 22 in
  let a = M.random_nonsingular st 6 in
  match Ns.nullspace st a with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "non-singular matrix has trivial nullspace"
  | Error e -> Alcotest.fail (Ns.O.error_to_string e)

let test_solve_singular_consistent () =
  let st = st0 23 in
  for _ = 1 to 5 do
    let n = 3 + Random.State.int st 5 in
    let r = 1 + Random.State.int st (n - 1) in
    let a = M.random_of_rank st n ~rank:r in
    let x_seed = Array.init n (fun _ -> F.random st) in
    let b = M.matvec a x_seed in
    match Ns.solve_singular st a b with
    | Ok (Some x) -> check_bool "particular solution" true (farr_eq (M.matvec a x) b)
    | Ok None -> Alcotest.fail "consistent system reported inconsistent"
    | Error e -> Alcotest.fail (Ns.O.error_to_string e)
  done

let test_solve_singular_inconsistent () =
  let st = st0 24 in
  let mutable_fails = ref 0 in
  for _ = 1 to 5 do
    let n = 4 + Random.State.int st 4 in
    let a = M.random_of_rank st n ~rank:(n - 2) in
    let b = Array.init n (fun _ -> F.random st) in
    (* random b lies in the column space with probability ~ p^{-2}: ~0 *)
    match Ns.solve_singular st a b with
    | Ok None -> ()
    | Ok (Some x) ->
      if not (farr_eq (M.matvec a x) b) then incr mutable_fails
    | Error _ -> ()
  done;
  check_int "no false solutions" 0 !mutable_fails

let test_least_squares_exact () =
  let st = st0 25 in
  (* overdetermined 6x3 system over Q with known least-squares solution:
     verify via the normal equations against Gauss *)
  let a = MQ.init 6 3 (fun i j -> Q.of_int (((i + 1) * (j + 2)) mod 7 + (if i = j then 3 else 0))) in
  let b = Array.init 6 (fun i -> Q.of_int (i - 2)) in
  match Lsq.solve st a b with
  | Error e -> Alcotest.fail (Lsq.O.error_to_string e)
  | Ok x ->
    check_bool "orthogonality" true (Lsq.residual_orthogonal a x b);
    (* cross-check with Gauss on the normal equations *)
    let at = MQ.transpose a in
    let normal = MQ.mul at a in
    let rhs = MQ.matvec at b in
    (match GQ.solve normal rhs with
    | Some y -> check_bool "matches Gauss" true (Array.for_all2 Q.equal x y)
    | None -> Alcotest.fail "normal equations singular")

let test_least_squares_consistent_system () =
  let st = st0 26 in
  (* if Ax = b is consistent the least-squares solution solves it exactly *)
  let a = MQ.init 5 2 (fun i j -> Q.of_int ((i * 2) + j + 1)) in
  let x_true = [| Q.of_ints 1 2; Q.of_ints (-2) 3 |] in
  let b = MQ.matvec a x_true in
  match Lsq.solve st a b with
  | Ok x -> check_bool "recovers exact solution" true (Array.for_all2 Q.equal x x_true)
  | Error e -> Alcotest.fail (Lsq.O.error_to_string e)

let () =
  Alcotest.run "kp_core"
    [
      ( "krylov",
        [
          Alcotest.test_case "doubling = sequential" `Quick test_krylov_doubling_vs_sequential;
          Alcotest.test_case "columns are powers" `Quick test_krylov_columns_are_powers;
        ] );
      ( "generator",
        [
          Alcotest.test_case "generator = charpoly" `Quick test_minimal_generator_is_charpoly;
          Alcotest.test_case "strategies agree" `Quick test_minimal_generator_strategies_agree;
        ] );
      ( "solve",
        [
          Alcotest.test_case "matches Gauss" `Quick test_solve_matches_gauss;
          Alcotest.test_case "sequential strategy" `Quick test_solve_sequential_strategy;
          Alcotest.test_case "pool-parallel" `Quick test_solve_with_pool;
          Alcotest.test_case "larger n with NTT" `Quick test_solve_larger_ntt;
          Alcotest.test_case "singular detected" `Quick test_solve_singular_detected;
        ] );
      ( "det",
        [
          Alcotest.test_case "matches Gauss" `Quick test_det_matches_gauss;
          Alcotest.test_case "singular certifies zero" `Quick test_det_singular_zero;
          Alcotest.test_case "identity/diag" `Quick test_det_identity_and_diag;
        ] );
      ( "small characteristic",
        [
          Alcotest.test_case "solve over GF(2^16)" `Quick test_solve_small_characteristic;
          Alcotest.test_case "det over GF(2^16)" `Quick test_det_small_characteristic;
        ] );
      ( "rationals",
        [
          Alcotest.test_case "solve exactly" `Quick test_solve_exact_rationals;
          Alcotest.test_case "Hilbert det" `Quick test_det_exact_rationals;
        ] );
      ( "wiedemann",
        [ Alcotest.test_case "sequential min poly" `Quick test_wiedemann_minpoly ] );
      ( "inverse",
        [
          Alcotest.test_case "Theorem 6 (autodiff)" `Quick test_inverse_autodiff;
          Alcotest.test_case "via solves" `Quick test_inverse_via_solves;
          Alcotest.test_case "singular rejected" `Quick test_inverse_singular_rejected;
          Alcotest.test_case "circuit shape" `Quick test_det_circuit_shape;
        ] );
      ( "transpose",
        [
          Alcotest.test_case "solve A^T x = b" `Quick test_transpose_solve;
          Alcotest.test_case "length/depth ratios" `Quick test_transpose_length_ratio;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "rank" `Quick test_rank_matches_gauss;
          Alcotest.test_case "rank: a failed minor is an error, not a verdict"
            `Quick test_rank_error_is_not_a_verdict;
          Alcotest.test_case "rank precondition threads card_s" `Quick
            test_rank_precondition_threads_card_s;
          Alcotest.test_case "nullspace" `Quick test_nullspace;
          Alcotest.test_case "nullspace trivial" `Quick test_nullspace_nonsingular_empty;
          Alcotest.test_case "singular consistent" `Quick test_solve_singular_consistent;
          Alcotest.test_case "singular inconsistent" `Quick test_solve_singular_inconsistent;
          Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
          Alcotest.test_case "least squares consistent" `Quick test_least_squares_consistent_system;
        ] );
    ]
