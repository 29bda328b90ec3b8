(* §5 structured-matrix extensions: Sylvester matrices, resultants, GCDs via
   linear algebra — plus qcheck property tests that tie the randomized core
   to classical algebra (Euclid, resultant multiplicativity). *)

module F = Kp_field.Fields.Gf_ntt
module CK = Kp_poly.Conv.Karatsuba (F)
module Sy = Kp_structured.Sylvester.Make (F)
module Pg = Kp_core.Polygcd.Make (F) (CK)
module P = Pg.P
module G = Kp_matrix.Gauss.Make (F)
module M = Kp_matrix.Dense.Make (F)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let poly = Alcotest.testable P.pp P.equal
let check_poly = Alcotest.check poly
let st0 k = Kp_util.Rng.make (5000 + k)
let fi = F.of_int
let pol l = P.of_list (List.map fi l)

(* Sylvester of f = x-a, g = x-b : resultant = a - b? Res(f,g) = Π (a_i - b_j)
   over roots: f has root a, g root b: Res = (a - b) with leading coeffs 1. *)
let test_sylvester_linear () =
  let f = pol [ -3; 1 ] (* x - 3 *) and g = pol [ -5; 1 ] (* x - 5 *) in
  let s = Sy.matrix f g in
  check_int "size 2" 2 s.Sy.M.rows;
  check_bool "Res(x-3, x-5) = 3 - 5... sign convention: det" true
    (F.equal (Sy.resultant_gauss f g) (fi 2) || F.equal (Sy.resultant_gauss f g) (fi (-2)))

let test_sylvester_shape () =
  let f = pol [ 1; 2; 3 ] and g = pol [ 4; 5; 6; 7 ] in
  let s = Sy.matrix f g in
  check_int "rows = m+n" 5 s.Sy.M.rows;
  check_int "cols = m+n" 5 s.Sy.M.cols;
  (* first row should start with the leading coefficient of f *)
  check_bool "banded layout" true (F.equal (M.get s 0 0) (fi 3))

let test_resultant_zero_iff_common_root () =
  let st = st0 1 in
  for _ = 1 to 20 do
    let a = F.random st and b = F.random st in
    let f = P.mul (pol [ 1; 1 ]) (P.of_coeffs [| F.neg a; F.one |]) in
    let g = P.of_coeffs [| F.neg a; F.one |] in
    check_bool "common root -> resultant 0" true
      (F.is_zero (Sy.resultant_gauss f g));
    if not (F.equal a b) then begin
      let g2 = P.of_coeffs [| F.neg b; F.one |] in
      check_bool "no common root -> nonzero" true
        (not (F.is_zero (Sy.resultant_gauss f g2)) || F.equal a (F.neg F.one))
    end
  done

let test_resultant_product_of_root_differences () =
  (* f = (x-1)(x-2), g = (x-3)(x-4): Res = Π (r_i - s_j) = (1-3)(1-4)(2-3)(2-4) = 12 *)
  let f = P.mul (pol [ -1; 1 ]) (pol [ -2; 1 ]) in
  let g = P.mul (pol [ -3; 1 ]) (pol [ -4; 1 ]) in
  check_bool "Res = 12" true (F.equal (Sy.resultant_gauss f g) (fi 12))

let test_resultant_kp_matches_gauss () =
  let st = st0 2 in
  for _ = 1 to 10 do
    let f = P.random st ~degree:(1 + Random.State.int st 6) in
    let g = P.random st ~degree:(1 + Random.State.int st 6) in
    match Pg.resultant st f g with
    | Ok r -> check_bool "KP resultant = Gauss" true (F.equal r (Sy.resultant_gauss f g))
    | Error e -> Alcotest.fail (Pg.O.error_to_string e)
  done

let test_sylvester_apply_matches_dense () =
  let st = st0 10 in
  for _ = 1 to 10 do
    let f = P.random st ~degree:(1 + Random.State.int st 8) in
    let g = P.random st ~degree:(1 + Random.State.int st 8) in
    let dim = P.degree f + P.degree g in
    let w = Array.init dim (fun _ -> F.random st) in
    let fast = Sy.apply f g w in
    let dense = M.matvec (Sy.matrix f g) w in
    check_bool "structured apply = dense apply" true
      (Array.for_all2 F.equal fast dense)
  done

let test_resultant_blackbox () =
  let st = st0 11 in
  for _ = 1 to 8 do
    let f = P.random st ~degree:(1 + Random.State.int st 7) in
    let g = P.random st ~degree:(1 + Random.State.int st 7) in
    match Pg.resultant_blackbox st f g with
    | Ok r ->
      check_bool "blackbox resultant = Gauss" true
        (F.equal r (Sy.resultant_gauss f g))
    | Error e -> Alcotest.fail (Pg.O.error_to_string e)
  done;
  (* common factor -> resultant 0 via the black box too *)
  let h = pol [ 1; 1 ] in
  let f = P.mul h (pol [ 2; 3; 1 ]) and g = P.mul h (pol [ 5; 1 ]) in
  match Pg.resultant_blackbox st f g with
  | Ok r -> check_bool "common factor -> 0" true (F.is_zero r)
  | Error e -> Alcotest.fail (Pg.O.error_to_string e)

let test_resultant_multiplicative () =
  let st = st0 3 in
  for _ = 1 to 10 do
    let f1 = P.random st ~degree:(1 + Random.State.int st 4) in
    let f2 = P.random st ~degree:(1 + Random.State.int st 4) in
    let g = P.random st ~degree:(1 + Random.State.int st 4) in
    (* Res(f1 f2, g) = Res(f1,g) Res(f2,g) *)
    check_bool "multiplicative" true
      (F.equal
         (Sy.resultant_gauss (P.mul f1 f2) g)
         (F.mul (Sy.resultant_gauss f1 g) (Sy.resultant_gauss f2 g)))
  done

let test_gcd_degree () =
  let st = st0 4 in
  for _ = 1 to 10 do
    let h = P.random st ~degree:(1 + Random.State.int st 3) in
    let f = P.mul h (P.random st ~degree:(1 + Random.State.int st 4)) in
    let g = P.mul h (P.random st ~degree:(1 + Random.State.int st 4)) in
    let euclid = P.gcd f g in
    check_bool "degree from rank" true
      (Pg.gcd_degree st f g = Ok (P.degree euclid))
  done

let test_gcd_matches_euclid () =
  let st = st0 5 in
  for _ = 1 to 15 do
    let h = P.random st ~degree:(Random.State.int st 4) in
    let f = P.mul h (P.random st ~degree:(1 + Random.State.int st 5)) in
    let g = P.mul h (P.random st ~degree:(1 + Random.State.int st 5)) in
    if not (P.is_zero f) && not (P.is_zero g) then begin
      match Pg.gcd st f g with
      | Ok d -> check_poly "gcd = Euclid" (P.gcd f g) d
      | Error e -> Alcotest.fail (Pg.O.error_to_string e)
    end
  done

let test_gcd_coprime () =
  let st = st0 6 in
  (* random polynomials are coprime with overwhelming probability *)
  let f = P.random st ~degree:5 and g = P.random st ~degree:6 in
  if P.is_zero (P.sub (P.gcd f g) P.one) then begin
    match Pg.gcd st f g with
    | Ok d -> check_poly "coprime -> 1" P.one d
    | Error e -> Alcotest.fail (Pg.O.error_to_string e)
  end

let test_bezout () =
  let st = st0 8 in
  for _ = 1 to 10 do
    let h = P.random st ~degree:(Random.State.int st 3) in
    let f = P.mul h (P.random st ~degree:(1 + Random.State.int st 4)) in
    let g = P.mul h (P.random st ~degree:(1 + Random.State.int st 4)) in
    if P.degree f >= 1 && P.degree g >= 1 then begin
      match Pg.bezout st f g with
      | Ok (d, u, v) ->
        check_poly "u f + v g = gcd" d (P.add (P.mul u f) (P.mul v g));
        check_poly "d is the gcd" (P.gcd f g) d;
        check_bool "deg u bound" true (P.degree u < max 1 (P.degree g - P.degree d));
        check_bool "deg v bound" true (P.degree v < max 1 (P.degree f - P.degree d))
      | Error e -> Alcotest.fail (Pg.O.error_to_string e)
    end
  done

let test_bezout_divisor_case () =
  let st = st0 9 in
  (* f | g: gcd = monic f, u = 1/lc(f), v = 0 *)
  let f = pol [ 2; 4 ] in
  let g = P.mul f (pol [ 1; 3; 5 ]) in
  match Pg.bezout st f g with
  | Ok (d, u, v) ->
    check_poly "gcd is monic f" (P.monic f) d;
    check_poly "identity" d (P.add (P.mul u f) (P.mul v g))
  | Error e -> Alcotest.fail (Pg.O.error_to_string e)

let test_gcd_with_zero_and_constants () =
  let st = st0 7 in
  let f = pol [ 1; 2; 1 ] in
  (match Pg.gcd st f P.zero with
  | Ok d -> check_poly "gcd(f, 0) = monic f" (P.monic f) d
  | Error e -> Alcotest.fail (Pg.O.error_to_string e));
  match Pg.gcd st f (pol [ 5 ]) with
  | Ok d -> check_poly "gcd(f, const) = 1" P.one d
  | Error e -> Alcotest.fail (Pg.O.error_to_string e)

(* ---- qcheck: the randomized solver against algebra ---- *)

let arb_small_n = QCheck.int_range 1 10

let prop_solver_matches_gauss =
  QCheck.Test.make ~name:"KP solve = Gauss solve" ~count:30 arb_small_n (fun n ->
      let module S = Kp_core.Solver.Make (F) (CK) in
      let st = Kp_util.Rng.make (n * 7919) in
      let a = M.random_nonsingular st n in
      let b = Array.init n (fun _ -> F.random st) in
      match (S.solve st a b, G.solve a b) with
      | Ok (x, _), Some y -> Array.for_all2 F.equal x y
      | _ -> false)

let prop_det_multiplicative =
  QCheck.Test.make ~name:"KP det multiplicative" ~count:15 arb_small_n (fun n ->
      let module S = Kp_core.Solver.Make (F) (CK) in
      let st = Kp_util.Rng.make (n * 104729) in
      let a = M.random st n n and b = M.random st n n in
      match (S.det st a, S.det st b, S.det st (M.mul a b)) with
      | Ok (da, _), Ok (db, _), Ok (dab, _) -> F.equal dab (F.mul da db)
      | _ -> false)

let prop_det_transpose_invariant =
  QCheck.Test.make ~name:"KP det(A) = det(A^T)" ~count:15 arb_small_n (fun n ->
      let module S = Kp_core.Solver.Make (F) (CK) in
      let st = Kp_util.Rng.make (n * 3571) in
      let a = M.random st n n in
      match (S.det st a, S.det st (M.transpose a)) with
      | Ok (d1, _), Ok (d2, _) -> F.equal d1 d2
      | _ -> false)

(* Small fields: the default card_s = max(12n², 64) exceeds |K|, so the
   retry engine must clamp |S| to the field cardinality (escalation included)
   and still terminate with a typed outcome — never loop or widen past |K|. *)
let prop_small_field_escalation_clamps =
  QCheck.Test.make ~name:"GF(97): |S| clamps to field, typed outcome" ~count:20
    (QCheck.int_range 1 8) (fun n ->
      let module F97 = Kp_field.Fields.Gf_97 in
      let module C97 = Kp_poly.Conv.Karatsuba (F97) in
      let module S97 = Kp_core.Solver.Make (F97) (C97) in
      let module M97 = Kp_matrix.Dense.Make (F97) in
      let st = Kp_util.Rng.make ((n * 12347) + 5) in
      let a = M97.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F97.random st) in
      let b = M97.matvec a x_true in
      match S97.solve st a b with
      | Ok (x, report) ->
        Array.for_all2 F97.equal x x_true
        && report.S97.O.card_s_final <= F97.p
      | Error (S97.O.Retries_exhausted r) -> r.S97.O.card_s_final <= F97.p
      | Error _ -> false)

let prop_gf2_typed_termination =
  QCheck.Test.make ~name:"GF(2): escalation clamps to 2, typed outcome"
    ~count:20 (QCheck.int_range 1 6) (fun n ->
      let module F2 = Kp_field.Fields.Gf2 in
      let module C2 = Kp_poly.Conv.Karatsuba (F2) in
      let module S2 = Kp_core.Solver.Make (F2) (C2) in
      let module M2 = Kp_matrix.Dense.Make (F2) in
      let st = Kp_util.Rng.make ((n * 7001) + 3) in
      let a = M2.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F2.random st) in
      let b = M2.matvec a x_true in
      (* over GF(2) the 3n²/|S| bound is vacuous: success is not
         guaranteed, but every outcome must be typed, the answer (if any)
         certified, and |S| never escalated past |K| = 2 *)
      match S2.solve ~retries:8 st a b with
      | Ok (x, report) ->
        Array.for_all2 F2.equal (M2.matvec a x) b
        && report.S2.O.card_s_final <= 2
      | Error (S2.O.Singular { report; _ }) | Error (S2.O.Retries_exhausted report)
        ->
        report.S2.O.card_s_final <= 2 && report.S2.O.attempts <= 8
      | Error _ -> false)

let prop_gcd_divides =
  QCheck.Test.make ~name:"linear-algebra gcd divides inputs" ~count:20
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 5))
    (fun (df, dg) ->
      let st = Kp_util.Rng.make ((df * 31) + dg) in
      let f = P.random st ~degree:df and g = P.random st ~degree:dg in
      match Pg.gcd st f g with
      | Ok d -> P.is_zero (P.rem f d) && P.is_zero (P.rem g d)
      | Error _ -> false)

let qtests = List.map (QCheck_alcotest.to_alcotest ~long:false)

let () =
  Alcotest.run "kp_extensions"
    [
      ( "sylvester",
        [
          Alcotest.test_case "linear resultant" `Quick test_sylvester_linear;
          Alcotest.test_case "matrix shape" `Quick test_sylvester_shape;
          Alcotest.test_case "common root" `Quick test_resultant_zero_iff_common_root;
          Alcotest.test_case "root differences" `Quick test_resultant_product_of_root_differences;
          Alcotest.test_case "structured apply" `Quick test_sylvester_apply_matches_dense;
          Alcotest.test_case "blackbox resultant" `Quick test_resultant_blackbox;
          Alcotest.test_case "multiplicative" `Quick test_resultant_multiplicative;
        ] );
      ( "polygcd",
        [
          Alcotest.test_case "KP resultant" `Quick test_resultant_kp_matches_gauss;
          Alcotest.test_case "gcd degree via rank" `Quick test_gcd_degree;
          Alcotest.test_case "gcd = Euclid" `Quick test_gcd_matches_euclid;
          Alcotest.test_case "coprime" `Quick test_gcd_coprime;
          Alcotest.test_case "bezout" `Quick test_bezout;
          Alcotest.test_case "bezout divisor case" `Quick test_bezout_divisor_case;
          Alcotest.test_case "zero/constants" `Quick test_gcd_with_zero_and_constants;
        ] );
      ("properties", qtests [ prop_solver_matches_gauss; prop_det_multiplicative;
                              prop_det_transpose_invariant; prop_gcd_divides;
                              prop_small_field_escalation_clamps;
                              prop_gf2_typed_termination ]);
    ]
