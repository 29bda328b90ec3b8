(* Field-layer tests: primality, GF(p) axioms, ℚ normalization, extension
   fields (Rabin irreducibility, inverses), and the counting wrapper. *)

open Kp_field

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* generic field-axiom property pack, reused for every instance *)
module Axioms (F : Field_intf.FIELD) = struct
  let arb =
    QCheck.make
      ~print:(fun x -> F.to_string x)
      (QCheck.Gen.map
         (fun seed -> F.random (Random.State.make [| seed |]))
         QCheck.Gen.int)

  let nonzero_arb =
    QCheck.make
      ~print:(fun x -> F.to_string x)
      (QCheck.Gen.map
         (fun seed ->
           let st = Random.State.make [| seed; 1 |] in
           let rec draw () =
             let x = F.random st in
             if F.is_zero x then draw () else x
           in
           draw ())
         QCheck.Gen.int)

  let tests name =
    let t n f = QCheck.Test.make ~name:(name ^ ": " ^ n) ~count:200 f in
    [
      t "add commutative" (QCheck.pair arb arb) (fun (a, b) ->
          F.equal (F.add a b) (F.add b a));
      t "add associative" (QCheck.triple arb arb arb) (fun (a, b, c) ->
          F.equal (F.add (F.add a b) c) (F.add a (F.add b c)));
      t "mul commutative" (QCheck.pair arb arb) (fun (a, b) ->
          F.equal (F.mul a b) (F.mul b a));
      t "mul associative" (QCheck.triple arb arb arb) (fun (a, b, c) ->
          F.equal (F.mul (F.mul a b) c) (F.mul a (F.mul b c)));
      t "distributive" (QCheck.triple arb arb arb) (fun (a, b, c) ->
          F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
      t "zero neutral" arb (fun a -> F.equal (F.add a F.zero) a);
      t "one neutral" arb (fun a -> F.equal (F.mul a F.one) a);
      t "additive inverse" arb (fun a -> F.is_zero (F.add a (F.neg a)));
      t "sub = add neg" (QCheck.pair arb arb) (fun (a, b) ->
          F.equal (F.sub a b) (F.add a (F.neg b)));
      t "multiplicative inverse" nonzero_arb (fun a ->
          F.equal (F.mul a (F.inv a)) F.one);
      t "div consistent" (QCheck.pair arb nonzero_arb) (fun (a, b) ->
          F.equal (F.div a b) (F.mul a (F.inv b)));
      t "of_int additive" (QCheck.pair QCheck.small_int QCheck.small_int)
        (fun (m, n) -> F.equal (F.of_int (m + n)) (F.add (F.of_int m) (F.of_int n)));
      t "of_int multiplicative" (QCheck.pair QCheck.small_int QCheck.small_int)
        (fun (m, n) -> F.equal (F.of_int (m * n)) (F.mul (F.of_int m) (F.of_int n)));
    ]
end

module Ax_ntt = Axioms (Fields.Gf_ntt)
module Ax_97 = Axioms (Fields.Gf_97)
module Ax_gf2 = Axioms (Gf2)
module Ax_q = Axioms (Rational)
module Ax_ext = Axioms (Fields.Gf2_16)

let test_is_prime () =
  List.iter (fun n -> check_bool (string_of_int n) true (Gfp.is_prime n))
    [ 2; 3; 5; 97; 998244353; 1073741789; 2147483647 ];
  List.iter (fun n -> check_bool (string_of_int n) false (Gfp.is_prime n))
    [ 0; 1; 4; 91; 561; 998244351; 1073741790; 25326001 * 1 ]

let test_gfp_rejects_composite () =
  check_bool "composite rejected" true
    (try ignore (Gfp.make 91); false with Invalid_argument _ -> true);
  check_bool "too large rejected" true
    (try ignore (Gfp.make 2147483647); false with Invalid_argument _ -> true)

let test_gfp_inv_all_small () =
  let module F = Fields.Gf_97 in
  for a = 1 to 96 do
    check_int (Printf.sprintf "inv %d" a) 1 (F.mul a (F.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F.inv 0))

let test_gfp_pow () =
  let module F = Fields.Gf_97 in
  (* Fermat: a^(p-1) = 1 *)
  for a = 1 to 96 do
    check_int "fermat" 1 (F.pow a 96)
  done;
  check_int "x^0" 1 (F.pow 5 0);
  check_int "0^0 = 1 by convention" 1 (F.pow 0 0)

let test_gfp_of_int_negative () =
  let module F = Fields.Gf_97 in
  check_int "-1 mod 97" 96 (F.of_int (-1));
  check_int "-97 mod 97" 0 (F.of_int (-97));
  check_int "big negative" (F.of_int (97 - 5)) (F.of_int (-5))

let test_rational_normalization () =
  let q = Rational.of_ints 6 4 in
  check_str "6/4 = 3/2" "3/2" (Rational.to_string q);
  check_str "neg denominator" "-3/2" (Rational.to_string (Rational.of_ints 3 (-2)));
  check_str "zero canonical" "0" (Rational.to_string (Rational.of_ints 0 17));
  check_str "integer display" "5" (Rational.to_string (Rational.of_ints 10 2));
  check_bool "equality after normalization" true
    (Rational.equal (Rational.of_ints 2 3) (Rational.of_ints (-4) (-6)))

let test_rational_compare () =
  check_bool "1/3 < 1/2" true (Rational.compare (Rational.of_ints 1 3) (Rational.of_ints 1 2) < 0);
  check_bool "-1/2 < 1/3" true (Rational.compare (Rational.of_ints (-1) 2) (Rational.of_ints 1 3) < 0);
  check_bool "eq" true (Rational.compare (Rational.of_ints 7 7) Rational.one = 0)

let test_rational_div_by_zero () =
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (Rational.of_ints 1 0));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Rational.inv Rational.zero))

let test_rational_bigvalues () =
  (* 1/3 + 1/3 + 1/3 = 1 without float error, with huge intermediates *)
  let third = Rational.of_ints 1 3 in
  check_bool "thirds" true
    Rational.(equal one (add third (add third third)));
  let b = Kp_bigint.Bigint.of_string "123456789123456789123456789" in
  let x = Rational.make b (Kp_bigint.Bigint.of_int 3) in
  check_bool "x * 3 / 3" true
    Rational.(equal x (div (mul x (of_int 3)) (of_int 3)))

let test_gfext_modulus_irreducible () =
  let module E = Fields.Gf2_16 in
  check_int "degree" 16 E.k;
  let full = Array.append E.modulus [| 1 |] in
  check_bool "modulus irreducible" true (Gfext.is_irreducible ~p:2 full)

let test_gfext_cardinality () =
  let module E = Fields.Gf2_16 in
  check_bool "cardinality 2^16" true (E.cardinality = Some 65536);
  check_int "characteristic" 2 E.characteristic

let test_gfext_gen_satisfies_modulus () =
  let module E = Fields.Gf2_16 in
  (* gen is a root of the modulus: gen^16 = -(sum modulus_i gen^i) *)
  let rec pow x k = if k = 0 then E.one else E.mul x (pow x (k - 1)) in
  let lhs = pow E.gen 16 in
  let rhs = ref E.zero in
  Array.iteri
    (fun i c -> if c <> 0 then rhs := E.add !rhs (E.mul (E.embed c) (pow E.gen i)))
    E.modulus;
  check_bool "gen is a root" true (E.equal lhs (E.neg !rhs))

let test_gfext_frobenius () =
  (* x -> x^2 is additive over GF(2^16) *)
  let module E = Fields.Gf2_16 in
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 50 do
    let a = E.random st and b = E.random st in
    let sq x = E.mul x x in
    check_bool "(a+b)^2 = a^2 + b^2" true
      (E.equal (sq (E.add a b)) (E.add (sq a) (sq b)))
  done

let test_gfext_sample_injective () =
  (* sample must reach more elements than the base field: this is the whole
     point of the extension (card(S) >= 3n^2 over GF(2)) *)
  let module E = Fields.Gf2_16 in
  let seen = Hashtbl.create 64 in
  let st = Random.State.make [| 4 |] in
  for _ = 1 to 2000 do
    let x = E.sample st ~card_s:1024 in
    Hashtbl.replace seen (E.to_string x) ()
  done;
  check_bool "many distinct sample values" true (Hashtbl.length seen > 500)

let test_gfext_gf3 () =
  (* quick second instance: GF(3^4) *)
  let module E = Gfext.Make (struct
    let p = 3
    let k = 4
    let seed = 7
  end) in
  check_bool "cardinality 81" true (E.cardinality = Some 81);
  let st = Random.State.make [| 2 |] in
  for _ = 1 to 100 do
    let a = E.random st in
    if not (E.is_zero a) then
      check_bool "inverse" true (E.equal (E.mul a (E.inv a)) E.one)
  done

let test_find_irreducible_various () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun (p, k) ->
      let f = Gfext.find_irreducible ~p ~k st in
      check_int "degree" (k + 1) (Array.length f);
      check_int "monic" 1 f.(k);
      check_bool "irreducible" true (Gfext.is_irreducible ~p f))
    [ (2, 1); (2, 8); (3, 5); (5, 4); (97, 3); (998244353, 2) ]

let test_is_irreducible_rejects () =
  (* x^2 = x * x is reducible; x^2 - 1 = (x-1)(x+1) over GF(5) *)
  check_bool "x^2 over GF(2)" false (Gfext.is_irreducible ~p:2 [| 0; 0; 1 |]);
  check_bool "x^2-1 over GF(5)" false (Gfext.is_irreducible ~p:5 [| 4; 0; 1 |]);
  check_bool "x^2+1 over GF(5) (has root 2)" false
    (Gfext.is_irreducible ~p:5 [| 1; 0; 1 |]);
  check_bool "x^2+1 over GF(3) (no root)" true
    (Gfext.is_irreducible ~p:3 [| 1; 0; 1 |])

let test_counting () =
  let module C = Counting.Make (Fields.Gf_97) in
  C.reset ();
  let _, ops =
    C.measure (fun () ->
        let x = C.add (C.of_int 3) (C.of_int 4) in
        let y = C.mul x x in
        let z = C.div y (C.of_int 5) in
        C.sub z (C.neg z))
  in
  check_int "adds (add+sub+neg)" 3 ops.Counting.additions;
  check_int "muls" 1 ops.Counting.multiplications;
  check_int "divs" 1 ops.Counting.divisions;
  check_int "total" 5 (Counting.total ops)

let test_counting_matches_base () =
  let module C = Counting.Make (Fields.Gf_97) in
  let module F = Fields.Gf_97 in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 100 do
    let a = F.random st and b = F.random st in
    check_int "add agrees" (F.add a b) (C.add a b);
    check_int "mul agrees" (F.mul a b) (C.mul a b)
  done

let qtests = List.map (QCheck_alcotest.to_alcotest ~long:false)

let () =
  Alcotest.run "kp_field"
    [
      ( "primality",
        [
          Alcotest.test_case "is_prime" `Quick test_is_prime;
          Alcotest.test_case "Gfp rejects composites" `Quick test_gfp_rejects_composite;
        ] );
      ( "gfp",
        [
          Alcotest.test_case "inverses exhaustive GF(97)" `Quick test_gfp_inv_all_small;
          Alcotest.test_case "pow / Fermat" `Quick test_gfp_pow;
          Alcotest.test_case "of_int negative" `Quick test_gfp_of_int_negative;
        ] );
      ("gfp axioms (NTT prime)", qtests (Ax_ntt.tests "gf_ntt"));
      ("gfp axioms (GF(97))", qtests (Ax_97.tests "gf97"));
      ("gf2 axioms", qtests (Ax_gf2.tests "gf2"));
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick test_rational_normalization;
          Alcotest.test_case "compare" `Quick test_rational_compare;
          Alcotest.test_case "division by zero" `Quick test_rational_div_by_zero;
          Alcotest.test_case "big values exact" `Quick test_rational_bigvalues;
        ] );
      ("rational axioms", qtests (Ax_q.tests "Q"));
      ( "gfext",
        [
          Alcotest.test_case "modulus irreducible" `Quick test_gfext_modulus_irreducible;
          Alcotest.test_case "cardinality" `Quick test_gfext_cardinality;
          Alcotest.test_case "generator is a root" `Quick test_gfext_gen_satisfies_modulus;
          Alcotest.test_case "Frobenius additive" `Quick test_gfext_frobenius;
          Alcotest.test_case "sample injectivity" `Quick test_gfext_sample_injective;
          Alcotest.test_case "GF(3^4) inverses" `Quick test_gfext_gf3;
          Alcotest.test_case "find_irreducible various" `Quick test_find_irreducible_various;
          Alcotest.test_case "is_irreducible rejects" `Quick test_is_irreducible_rejects;
        ] );
      ("gfext axioms GF(2^16)", qtests (Ax_ext.tests "gf2^16"));
      ( "counting",
        [
          Alcotest.test_case "counters" `Quick test_counting;
          Alcotest.test_case "agrees with base field" `Quick test_counting_matches_base;
        ] );
    ]
