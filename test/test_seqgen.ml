(* Berlekamp/Massey and linearly generated sequence tests. *)

module F = Kp_field.Fields.Gf_ntt
module Q = Kp_field.Rational
module BM = Kp_seqgen.Berlekamp_massey.Make (F)
module BMQ = Kp_seqgen.Berlekamp_massey.Make (Q)
module LR = Kp_seqgen.Linrec.Make (F)
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module MB = Kp_seqgen.Matrix_bm.Make (F)
module P = BM.P

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let poly = Alcotest.testable P.pp P.equal
let check_poly = Alcotest.check poly

let fi = F.of_int

let test_fibonacci () =
  let s = LR.fibonacci_like F.zero F.one 20 in
  check_bool "fib starts 0 1 1 2 3 5" true
    (Array.sub s 0 6 = [| fi 0; fi 1; fi 1; fi 2; fi 3; fi 5 |]);
  let f = BM.minimal_polynomial s in
  check_poly "min poly = λ²-λ-1" (P.of_list [ fi (-1); fi (-1); fi 1 ]) f

let test_geometric () =
  (* s_k = 3^k: min poly λ - 3 *)
  let s = Array.init 10 (fun k -> F.pow (fi 3) k) in
  check_poly "λ-3" (P.of_list [ fi (-3); fi 1 ]) (BM.minimal_polynomial s)

let test_zero_sequence () =
  let s = Array.make 8 F.zero in
  check_poly "zero sequence -> 1" P.one (BM.minimal_polynomial s);
  check_int "degree 0" 0 (P.degree (BM.minimal_polynomial s))

let test_constant_sequence () =
  let s = Array.make 8 (fi 7) in
  check_poly "constant -> λ-1" (P.of_list [ fi (-1); fi 1 ]) (BM.minimal_polynomial s)

let test_extend_then_recover () =
  let st = Random.State.make [| 80 |] in
  for _ = 1 to 20 do
    let l = 1 + Random.State.int st 8 in
    (* random monic recurrence with nonzero constant term (so it is minimal
       for generic initial values with high probability) *)
    let rec_poly =
      Array.init (l + 1) (fun i ->
          if i = l then F.one
          else if i = 0 then fi (1 + Random.State.int st 1000)
          else F.random st)
    in
    let init = Array.init l (fun _ -> F.random st) in
    let s = LR.extend ~init ~rec_poly (2 * l + 4) in
    let f = BM.minimal_polynomial s in
    check_bool "recovered poly generates" true (BM.generates (P.to_array f) s);
    check_bool "degree at most l" true (P.degree f <= l)
  done

let test_minpoly_generates () =
  let st = Random.State.make [| 81 |] in
  for _ = 1 to 20 do
    let n = 2 + Random.State.int st 20 in
    let s = Array.init n (fun _ -> F.random st) in
    let f = BM.minimal_polynomial s in
    check_bool "min poly generates its sequence" true (BM.generates (P.to_array f) s)
  done

let test_krylov_minpoly_divides_charpoly () =
  let st = Random.State.make [| 82 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random st n n in
    let u = Array.init n (fun _ -> F.random st) in
    let b = Array.init n (fun _ -> F.random st) in
    let s = LR.krylov_sequence (M.matvec_into a) ~u ~b (2 * n) in
    let f = BM.minimal_polynomial s in
    check_bool "deg <= n" true (P.degree f <= n);
    (* f_u^{A,b} divides the characteristic polynomial: check f(A) maps b
       into the kernel of the Krylov form, i.e. u A^j f(A) b = 0 — already
       implied by generates, so check generates on a longer sequence *)
    let s_long = LR.krylov_sequence (M.matvec_into a) ~u ~b (3 * n) in
    check_bool "generates extended Krylov sequence" true
      (BM.generates (P.to_array f) s_long)
  done

let test_krylov_nonsingular_full_degree () =
  (* for random A and u, b the min poly usually has full degree n and
     constant term ± det: check when it does, constant term relates to det *)
  let st = Random.State.make [| 83 |] in
  let tried = ref 0 and confirmed = ref 0 in
  while !confirmed < 5 && !tried < 50 do
    incr tried;
    let n = 2 + Random.State.int st 6 in
    let a = M.random_nonsingular st n in
    let u = Array.init n (fun _ -> F.random st) in
    let b = Array.init n (fun _ -> F.random st) in
    let s = LR.krylov_sequence (M.matvec_into a) ~u ~b (2 * n) in
    let f = BM.minimal_polynomial s in
    if P.degree f = n then begin
      incr confirmed;
      let det = G.det a in
      let expect = if n land 1 = 0 then det else F.neg det in
      check_bool "f(0) = (-1)^n det A" true (F.equal (P.coeff f 0) expect)
    end
  done;
  check_bool "reached full degree cases" true (!confirmed >= 5)

let test_connection_polynomial_form () =
  let s = LR.fibonacci_like F.zero F.one 16 in
  let c = BM.connection_polynomial s in
  check_bool "c(0) = 1" true (F.equal c.(0) F.one);
  check_int "degree 2" 3 (Array.length c)

let test_bm_over_q () =
  (* exact rationals: sequence 1/2^k has min poly λ - 1/2 *)
  let module PQ = BMQ.P in
  let s = Array.init 8 (fun k -> Q.of_ints 1 (1 lsl k)) in
  let f = BMQ.minimal_polynomial s in
  Alcotest.check
    (Alcotest.testable PQ.pp PQ.equal)
    "λ - 1/2"
    (PQ.of_list [ Q.of_ints (-1) 2; Q.one ])
    f

let test_generates_rejects () =
  let s = LR.fibonacci_like F.zero F.one 10 in
  check_bool "wrong poly rejected" false (BM.generates [| fi 1; fi 1 |] s);
  check_bool "right poly accepted" true (BM.generates [| fi (-1); fi (-1); fi 1 |] s)

(* ---------- bounded update = full-width sweep ---------- *)

(* Massey's synthesis with the update swept over the full width of b and
   whole-array copies — the loop the library bounds to b's live support *)
module Unbounded (F : Kp_field.Field_intf.FIELD) = struct
  let connection_polynomial (s : F.t array) =
    let n = Array.length s in
    let c = Array.make (n + 1) F.zero in
    let b = Array.make (n + 1) F.zero in
    c.(0) <- F.one;
    b.(0) <- F.one;
    let l = ref 0 and m = ref 1 and bb = ref F.one in
    for i = 0 to n - 1 do
      let d = ref s.(i) in
      for j = 1 to !l do
        d := F.add !d (F.mul c.(j) s.(i - j))
      done;
      if F.is_zero !d then incr m
      else if 2 * !l <= i then begin
        let t = Array.copy c in
        let coef = F.div !d !bb in
        for j = 0 to n - !m do
          c.(j + !m) <- F.sub c.(j + !m) (F.mul coef b.(j))
        done;
        l := i + 1 - !l;
        Array.blit t 0 b 0 (n + 1);
        bb := !d;
        m := 1
      end
      else begin
        let coef = F.div !d !bb in
        for j = 0 to n - !m do
          c.(j + !m) <- F.sub c.(j + !m) (F.mul coef b.(j))
        done;
        incr m
      end
    done;
    Array.sub c 0 (!l + 1)
end

(* sequences of every generator degree the solvers meet — 0 (zero), 1
   (geometric), n (random of length 2n) and in between (LFSR outputs) —
   plus sequences whose discrepancies vanish mid-run: sparse 0/1 runs,
   and a long LFSR prefix followed by a break *)
let bm_sequences (type a) (module F : Kp_field.Field_intf.FIELD with type t = a)
    ~sizes st =
  let module LR = Kp_seqgen.Linrec.Make (F) in
  let rand k = Array.init k (fun _ -> F.random st) in
  let lfsr l len =
    let rec_poly =
      Array.init (l + 1) (fun i -> if i = l then F.one else F.random st)
    in
    LR.extend ~init:(rand l) ~rec_poly len
  in
  let sparse len =
    Array.init len (fun _ ->
        if Random.State.int st 5 = 0 then F.one else F.zero)
  in
  let broken l len =
    let s = lfsr l len and k = len - 1 - (len / 4) in
    s.(k) <- F.add s.(k) F.one;
    s
  in
  (* first non-zero term at index n−1: linear complexity exactly n *)
  let impulse n =
    Array.init (2 * n) (fun k ->
        if k = n - 1 then F.one else if k >= n then F.random st else F.zero)
  in
  let geometric = Array.make 12 F.one in
  for k = 1 to 11 do
    geometric.(k) <- F.mul geometric.(k - 1) (F.of_int 3)
  done;
  [ ("empty", [||]); ("zero", Array.make 12 F.zero); ("geometric", geometric) ]
  @ List.concat_map
      (fun n ->
        [ (Printf.sprintf "random 2n n=%d" n, rand (2 * n));
          (Printf.sprintf "impulse deg n=%d" n, impulse n);
          (Printf.sprintf "lfsr deg %d of 2n" (n / 2), lfsr (n / 2) (2 * n));
          (Printf.sprintf "sparse n=%d" n, sparse (2 * n));
          (Printf.sprintf "broken lfsr n=%d" n, broken (max 1 (n / 3)) (2 * n)) ])
      sizes

let bounded_matches_unbounded (type a) name ~top
    (module F : Kp_field.Field_intf.FIELD with type t = a) () =
  let module B = Kp_seqgen.Berlekamp_massey.Make (F) in
  let module U = Unbounded (F) in
  let st = Random.State.make [| 84 |] in
  let degrees = Hashtbl.create 8 in
  List.iter
    (fun (what, s) ->
      let got = B.connection_polynomial s and want = U.connection_polynomial s in
      Hashtbl.replace degrees (Array.length want - 1) ();
      check_bool
        (Printf.sprintf "%s %s: bounded = unbounded" name what)
        true
        (Array.length got = Array.length want && Array.for_all2 F.equal got want))
    (bm_sequences (module F) ~sizes:[ 1; 2; 3; 5; 8; top ] st);
  (* degree 0, degree 1 and degree n all occurred *)
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "%s: degree %d covered" name d) true
        (Hashtbl.mem degrees d))
    [ 0; 1; top ]

(* the bound only drops operations on zero entries: never more field ops
   than the full-width sweep, strictly fewer once the support is short *)
let test_bm_bounded_fewer_ops () =
  let module Cnt = Kp_field.Counting.Make (F) in
  let module B = Kp_seqgen.Berlekamp_massey.Make (Cnt) in
  let module U = Unbounded (Cnt) in
  let st = Random.State.make [| 85 |] in
  List.iter
    (fun n ->
      let s = Array.init (2 * n) (fun _ -> Cnt.random st) in
      let _, bounded = Cnt.measure (fun () -> ignore (B.connection_polynomial s)) in
      let _, full = Cnt.measure (fun () -> ignore (U.connection_polynomial s)) in
      let bounded = Kp_field.Counting.total bounded
      and full = Kp_field.Counting.total full in
      check_bool
        (Printf.sprintf "n=%d: %d bounded ops < %d full-width ops" n bounded full)
        true (bounded < full))
    [ 8; 64 ]

(* ---------- generates = the scalar window check ---------- *)

(* the window loop [generates] ran before it became kernel calls *)
let generates_ref (type a) (module F : Kp_field.Field_intf.FIELD with type t = a)
    f s =
  let module P = Kp_poly.Dense.Make (F) in
  let fp = P.of_coeffs f in
  if P.is_zero fp then Array.for_all F.is_zero s
  else begin
    let l = P.degree fp and n = Array.length s in
    let ok = ref true in
    for j = 0 to n - 1 - l do
      let acc = ref F.zero in
      for i = 0 to l do
        acc := F.add !acc (F.mul (P.coeff fp i) s.(j + i))
      done;
      if not (F.is_zero !acc) then ok := false
    done;
    !ok
  end

(* every generator BM finds is accepted, and so is it times λ; the same
   generator with one coefficient bumped, or on the sequence with one term
   bumped, is rejected exactly when the scalar check rejects it *)
let generates_matches_reference (type a) name ~top
    (module F : Kp_field.Field_intf.FIELD with type t = a) () =
  let module B = Kp_seqgen.Berlekamp_massey.Make (F) in
  let st = Random.State.make [| 86 |] in
  let bump a k =
    let a = Array.copy a in
    a.(k) <- F.add a.(k) F.one;
    a
  in
  let agree what f s =
    let want = generates_ref (module F) f s in
    check_bool
      (Printf.sprintf "%s %s: generates = scalar reference" name what)
      want (B.generates f s);
    want
  in
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun (what, s) ->
      let f = B.P.to_array (B.minimal_polynomial s) in
      check_bool (Printf.sprintf "%s %s: min poly accepted" name what) true
        (agree what f s);
      incr accepted;
      ignore (agree (what ^ " ·λ") (Array.append [| F.zero |] f) s);
      List.iter
        (fun (tamper, f', s') ->
          if not (agree (what ^ " " ^ tamper) f' s') then incr rejected)
        ((if Array.length s > 0 then
            [ ("bumped term", f, bump s (Random.State.int st (Array.length s))) ]
          else [])
        @ List.init (Array.length f) (fun k ->
              (Printf.sprintf "bumped f%d" k, bump f k, s))))
    (bm_sequences (module F) ~sizes:[ 1; 2; 3; 5; top ] st);
  check_bool (name ^ ": accepted and rejected cases both ran") true
    (!accepted > 0 && !rejected > 0)

(* ---------- Krylov sequences into reused buffers ---------- *)

(* the 2n-term sequence of the black-box solve's operator Ã = A·P (sparse
   A, butterfly P, instrumented) ping-pongs Ãⁱ·b between two buffers: its
   output, the two buffers and nothing per step (allocating applies cost
   2n² words at n = 512) — and it equals the sequence of allocating
   products *)
let test_krylov_allocation () =
  let module Sp = Kp_matrix.Sparse.Make (F) in
  let module V = Kp_matrix.Vec.Make (F) in
  let module W = Kp_core.Wiedemann.Make (F) in
  let module SP = Kp_precond.Precond.Make (F) (Kp_poly.Conv.Karatsuba_field (F)) in
  let n = 512 in
  let st = Kp_util.Rng.make 87 in
  let a = Sp.random_nonsingular st n ~density:(16. /. float_of_int n) in
  let p = SP.build ~card_s:(12 * n * n) ~n Kp_precond.Precond.Sparse_butterfly st in
  let a_tilde =
    W.Bb.instrument ~name:"preconditioned"
      (W.Bb.compose (W.Bb.of_sparse a) (W.precond_blackbox p))
  in
  let u = Array.init n (fun _ -> F.random st) in
  let b = Array.init n (fun _ -> F.random st) in
  let b0 = Array.copy b and u0 = Array.copy u in
  ignore (LR.krylov_sequence a_tilde.W.Bb.apply_into ~u ~b 4);
  let seq, words =
    Test_seeds.allocated_words (fun () ->
        LR.krylov_sequence a_tilde.W.Bb.apply_into ~u ~b (2 * n))
  in
  check_bool
    (Printf.sprintf "n=%d: %.0f words allocated < 8n = %d" n words (8 * n))
    true
    (words < float_of_int (8 * n));
  check_bool "b and u untouched" true (b = b0 && u = u0);
  let v = ref b in
  let want =
    Array.init (2 * n) (fun i ->
        if i > 0 then v := Sp.matvec a (p.Kp_precond.Precond.apply !v);
        V.dot u !v)
  in
  check_bool "equals the allocating sequence" true (seq = want)

(* ---------- matrix Berlekamp/Massey ---------- *)

let arr_eq a b =
  Array.length a = Array.length b && Array.for_all2 F.equal a b

(* S_i = U·Aⁱ·V with U b×n, V n×b, each term b×b row-major *)
let block_sequence a ~u ~v len =
  let s = Array.make len [||] in
  let k = ref v in
  for i = 0 to len - 1 do
    s.(i) <- (M.mul u !k).M.data;
    k := M.mul a !k
  done;
  s

let square_of_flat b flat = M.init b b (fun r c -> flat.((r * b) + c))

let test_mbm_b1_matches_scalar () =
  let st = Random.State.make [| 90 |] in
  for _ = 1 to 20 do
    let l = 1 + Random.State.int st 8 in
    let rec_poly =
      Array.init (l + 1) (fun i ->
          if i = l then F.one
          else if i = 0 then fi (1 + Random.State.int st 1000)
          else F.random st)
    in
    let init = Array.init l (fun _ -> F.random st) in
    let s = LR.extend ~init ~rec_poly (2 * l + 4) in
    let f_scalar = P.to_array (BM.minimal_polynomial s) in
    let gen = MB.minimal_generator ~b:1 (Array.map (fun x -> [| x |]) s) in
    match MB.to_scalar gen with
    | None -> Alcotest.fail "b=1 generator has no scalar form"
    | Some f_block ->
        check_bool "b=1 generator = scalar Berlekamp/Massey" true
          (arr_eq f_scalar f_block)
  done

let test_mbm_b1_krylov () =
  let st = Random.State.make [| 91 |] in
  for _ = 1 to 10 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random st n n in
    let u = Array.init n (fun _ -> F.random st) in
    let b = Array.init n (fun _ -> F.random st) in
    let s = LR.krylov_sequence (M.matvec_into a) ~u ~b ((2 * n) + 3) in
    let f_scalar = P.to_array (BM.minimal_polynomial s) in
    let gen = MB.minimal_generator ~b:1 (Array.map (fun x -> [| x |]) s) in
    check_bool "b=1 Krylov generator generates" true
      (MB.generates ~b:1 (Array.map (fun x -> [| x |]) s) gen);
    match MB.to_scalar gen with
    | None -> Alcotest.fail "b=1 generator has no scalar form"
    | Some f_block ->
        check_bool "b=1 Krylov generator = scalar min poly" true
          (arr_eq f_scalar f_block)
  done

let test_mbm_block_generates () =
  let st = Random.State.make [| 92 |] in
  List.iter
    (fun b ->
      for _ = 1 to 8 do
        let n = b + Random.State.int st 9 in
        let a = M.random st n n in
        let u = M.random st b n in
        let v = M.random st n b in
        let sigma = (2 * (((n + b) - 1) / b)) + 3 in
        let s = block_sequence a ~u ~v sigma in
        let gen = MB.minimal_generator ~b s in
        check_bool "block generator generates its sequence" true
          (MB.generates ~b s gen);
        check_bool "degree sum at most n" true (MB.degree_sum gen <= n)
      done)
    [ 2; 3 ]

let test_mbm_det_relation () =
  (* full-degree case: Σδ = n and det Λ ≠ 0 certify
     det(λI−A) = det F(λ)/det Λ, so det A = (−1)ⁿ det F(0)/det Λ *)
  let st = Random.State.make [| 93 |] in
  let b = 2 in
  let tried = ref 0 and confirmed = ref 0 in
  while !confirmed < 5 && !tried < 60 do
    incr tried;
    let n = 3 + Random.State.int st 6 in
    let a = M.random_nonsingular st n in
    let u = M.random st b n in
    let v = M.random st n b in
    let sigma = (2 * (((n + b) - 1) / b)) + 3 in
    let s = block_sequence a ~u ~v sigma in
    let gen = MB.minimal_generator ~b s in
    let lam = square_of_flat b (MB.leading_term gen) in
    let det_lam = G.det lam in
    if
      MB.generates ~b s gen
      && MB.degree_sum gen = n
      && not (F.is_zero det_lam)
    then begin
      incr confirmed;
      let f0 = square_of_flat b (MB.constant_term gen) in
      let lhs = F.div (G.det f0) det_lam in
      let det = G.det a in
      let expect = if n land 1 = 0 then det else F.neg det in
      check_bool "det A = (-1)^n det F(0)/det Λ" true (F.equal lhs expect)
    end
  done;
  check_bool "reached full-degree block cases" true (!confirmed >= 5)

let test_mbm_zero_sequence () =
  let b = 2 in
  let s = Array.init 9 (fun _ -> Array.make (b * b) F.zero) in
  let gen = MB.minimal_generator ~b s in
  check_int "zero block sequence -> degree sum 0" 0 (MB.degree_sum gen);
  check_bool "trivial generator generates" true (MB.generates ~b s gen)

let test_mbm_generates_rejects () =
  let st = Random.State.make [| 94 |] in
  let b = 2 and n = 6 in
  let a = M.random st n n in
  let u = M.random st b n in
  let v = M.random st n b in
  let s = block_sequence a ~u ~v ((2 * (n / b)) + 3) in
  let gen = MB.minimal_generator ~b s in
  check_bool "good generator accepted" true (MB.generates ~b s gen);
  let bad =
    {
      gen with
      MB.cols =
        Array.map
          (fun col -> Array.map (fun fi -> Array.map F.(add one) fi) col)
          gen.MB.cols;
    }
  in
  check_bool "tampered generator rejected" false (MB.generates ~b s bad)

let () =
  Alcotest.run "kp_seqgen"
    [
      ( "berlekamp-massey",
        [
          Alcotest.test_case "fibonacci" `Quick test_fibonacci;
          Alcotest.test_case "geometric" `Quick test_geometric;
          Alcotest.test_case "zero sequence" `Quick test_zero_sequence;
          Alcotest.test_case "constant sequence" `Quick test_constant_sequence;
          Alcotest.test_case "extend/recover roundtrip" `Quick test_extend_then_recover;
          Alcotest.test_case "min poly generates" `Quick test_minpoly_generates;
          Alcotest.test_case "connection polynomial" `Quick test_connection_polynomial_form;
          Alcotest.test_case "exact over Q" `Quick test_bm_over_q;
          Alcotest.test_case "generates rejects" `Quick test_generates_rejects;
          Alcotest.test_case "bounded = unbounded GF(p)" `Quick
            (bounded_matches_unbounded "GF(p)" ~top:64 (module F));
          (* exact rationals grow fast: a shorter top size *)
          Alcotest.test_case "bounded = unbounded Q" `Quick
            (bounded_matches_unbounded "Q" ~top:12 (module Q));
          Alcotest.test_case "bounded = unbounded GF(2)" `Quick
            (bounded_matches_unbounded "GF(2)" ~top:64
               (module Kp_field.Fields.Gf2));
          Alcotest.test_case "bounded = unbounded GF(2^30-35)" `Quick
            (bounded_matches_unbounded "GF(2^30-35)" ~top:64
               (module Kp_field.Fields.Gf_big));
          Alcotest.test_case "bounded = unbounded GF(p=2)" `Quick
            (bounded_matches_unbounded "GF(p=2)" ~top:64
               (Kp_field.Gfp.make 2));
          Alcotest.test_case "bounded = unbounded GF(p) twin" `Quick
            (bounded_matches_unbounded "GF(p) twin" ~top:64
               (Test_seeds.twin (module F)));
          Alcotest.test_case "bounded does fewer ops" `Quick
            test_bm_bounded_fewer_ops;
          Alcotest.test_case "generates = reference GF(p)" `Quick
            (generates_matches_reference "GF(p)" ~top:24 (module F));
          Alcotest.test_case "generates = reference GF(2)" `Quick
            (generates_matches_reference "GF(2)" ~top:24
               (module Kp_field.Fields.Gf2));
          (* exact rationals grow fast: a shorter top size *)
          Alcotest.test_case "generates = reference Q" `Quick
            (generates_matches_reference "Q" ~top:8 (module Q));
        ] );
      ( "krylov",
        [
          Alcotest.test_case "min poly divides charpoly" `Quick
            test_krylov_minpoly_divides_charpoly;
          Alcotest.test_case "full degree det relation" `Quick
            test_krylov_nonsingular_full_degree;
          Alcotest.test_case "two reused buffers" `Quick
            test_krylov_allocation;
        ] );
      ( "matrix-bm",
        [
          Alcotest.test_case "b=1 matches scalar BM" `Quick
            test_mbm_b1_matches_scalar;
          Alcotest.test_case "b=1 Krylov degeneration" `Quick test_mbm_b1_krylov;
          Alcotest.test_case "block generator generates" `Quick
            test_mbm_block_generates;
          Alcotest.test_case "block det relation" `Quick test_mbm_det_relation;
          Alcotest.test_case "zero block sequence" `Quick test_mbm_zero_sequence;
          Alcotest.test_case "generates rejects tampering" `Quick
            test_mbm_generates_rejects;
        ] );
    ]
