(* Black-box Wiedemann (the §2 sequential instantiation) and the
   counting↔circuit cross-validation: the two measurement instruments of
   the experiment harness must agree with each other and with the dense
   oracles. *)

module F = Kp_field.Fields.Gf_ntt
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module Sp = Kp_matrix.Sparse.Make (F)
module Bb = Kp_matrix.Blackbox.Make (F)
module W = Kp_core.Wiedemann.Make (F)
module Lev = Kp_structured.Leverrier.Make (F)
module CK = Kp_poly.Conv.Karatsuba (F)
module SPc = Kp_precond.Precond.Make (F) (CK)

(* the pure Hankel operator H(h) as a black box, reconstructed through the
   preconditioner layer with a unit diagonal — the regression targets below
   (non-zero ops accounting, dense agreement) now pin the precond record *)
let hankel_blackbox ~n h =
  let p =
    SPc.hankel_diag
      ~ops_per_apply:(lazy (SPc.hankel_ops_per_apply n))
      ~det:SPc.det_hd_elimination
      ~n ~h ~d:(Array.make n F.one) ()
  in
  W.precond_blackbox p
module TC = Kp_structured.Toeplitz_charpoly.Make (F) (CK)
module TZ = Kp_structured.Toeplitz.Make (F) (CK)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st0 k = Kp_util.Rng.make (9000 + k)
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 F.equal a b

let test_solve_dense_blackbox () =
  let st = st0 1 in
  for _ = 1 to 8 do
    let n = 2 + Random.State.int st 14 in
    let a = M.random_nonsingular st n in
    let x_true = Array.init n (fun _ -> F.random st) in
    let b = M.matvec a x_true in
    match W.solve st (Bb.of_dense a) b with
    | Ok (x, _) -> check_bool "solution" true (farr_eq x x_true)
    | Error e -> Alcotest.fail (W.O.error_to_string e)
  done

let test_solve_sparse_blackbox () =
  let st = st0 2 in
  for _ = 1 to 5 do
    let n = 20 + Random.State.int st 40 in
    let s = Sp.random_nonsingular st n ~density:0.1 in
    let x_true = Array.init n (fun _ -> F.random st) in
    let b = Sp.matvec s x_true in
    match W.solve st (Bb.of_sparse s) b with
    | Ok (x, _) -> check_bool "sparse solution" true (farr_eq x x_true)
    | Error e -> Alcotest.fail (W.O.error_to_string e)
  done

let test_solve_composed_blackbox () =
  let st = st0 3 in
  let n = 15 in
  let a1 = M.random_nonsingular st n and a2 = M.random_nonsingular st n in
  let bb = Bb.compose (Bb.of_dense a1) (Bb.of_dense a2) in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = Bb.apply bb x_true in
  match W.solve st bb b with
  | Ok (x, _) -> check_bool "product blackbox" true (farr_eq x x_true)
  | Error e -> Alcotest.fail (W.O.error_to_string e)

let test_det_blackbox () =
  let st = st0 4 in
  for _ = 1 to 8 do
    let n = 2 + Random.State.int st 10 in
    let a = M.random st n n in
    match W.det st (Bb.of_dense a) with
    | Ok (d, _) -> check_bool "det = Gauss" true (F.equal d (G.det a))
    | Error e -> Alcotest.fail (W.O.error_to_string e)
  done

let test_det_singular_blackbox () =
  let st = st0 5 in
  for _ = 1 to 4 do
    let n = 4 + Random.State.int st 5 in
    let a = M.random_of_rank st n ~rank:(n - 1) in
    match W.det st (Bb.of_dense a) with
    | Ok (d, _) -> check_bool "det 0 certified" true (F.is_zero d)
    | Error _ -> Alcotest.fail "singular det should certify zero"
  done

let test_minpoly_is_dense_minpoly () =
  let st = st0 6 in
  for _ = 1 to 6 do
    let n = 2 + Random.State.int st 8 in
    let a = M.random_nonsingular st n in
    let f = W.minimal_polynomial st (Bb.of_dense a) in
    (* f must annihilate A when it has full degree (equals charpoly) *)
    if Array.length f = n + 1 then begin
      let s = Lev.power_sums_of_dense ~mul:M.mul a in
      let cp = Lev.newton_identities ~n s in
      check_bool "minpoly = charpoly at full degree" true (farr_eq f cp)
    end
  done

(* the §2 certificate: a singular verdict carries w with w ≠ 0 and
   A·w = 0, from the Krylov pass that found λ | f.  The plain solve,
   the preconditioned solve and the cached prefix each prove a rank-(n−1)
   input singular on the first attempt; a non-singular input never gets
   a verdict *)
let test_singularity_certificate () =
  let st = st0 7 in
  let checked a what = function
    | Error (W.O.Singular { kernel; report }) ->
      check_bool (what ^ ": w <> 0") true
        (Array.exists (fun x -> not (F.is_zero x)) kernel);
      check_bool (what ^ ": A.w = 0") true
        (Array.for_all F.is_zero (M.matvec a kernel));
      check_bool (what ^ ": first attempt") true (report.W.O.attempts = 1)
    | Ok _ -> Alcotest.fail (what ^ ": answered a singular input")
    | Error e -> Alcotest.fail (what ^ ": " ^ W.O.error_to_string e)
  in
  for _ = 1 to 5 do
    let n = 5 + Random.State.int st 5 in
    let sing = M.random_of_rank st n ~rank:(n - 1) in
    let b = Array.init n (fun _ -> F.random st) in
    checked sing "solve" (W.solve st (Bb.of_dense sing) b);
    checked sing "solve_preconditioned"
      (W.solve_preconditioned st (Bb.of_dense sing) b);
    checked sing "precompute" (W.precompute st (Bb.of_dense sing));
    let nonsing = M.random_nonsingular st n in
    match W.precompute st (Bb.of_dense nonsing) with
    | Error (W.O.Singular _) -> Alcotest.fail "non-singular input read as singular"
    | Ok _ | Error _ -> ()
  done

(* a 0×0 black box is refused at entry, like a wrong-length rhs — not
   retried into a low-degree rejection and a dense fallback *)
let test_empty_blackbox_rejected () =
  let bb = Bb.of_fun 0 Fun.id in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ " accepted a 0-dimensional black box")
  in
  refused "solve" (fun () -> ignore (W.solve (st0 9) bb [||]));
  refused "solve_preconditioned" (fun () ->
      ignore (W.solve_preconditioned (st0 9) bb [||]));
  refused "det" (fun () -> ignore (W.det (st0 9) bb))

(* ---- Toeplitz solve (public §3 API) ---- *)

let test_toeplitz_solve () =
  let st = st0 8 in
  for _ = 1 to 10 do
    let n = 1 + Random.State.int st 12 in
    let d = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
    let dense = TZ.to_dense ~n d in
    match G.solve dense (Array.init n (fun _ -> F.random st)) with
    | None -> () (* singular draw; skip *)
    | Some _ ->
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec dense x_true in
      let x = TC.solve ~n d b in
      check_bool "Toeplitz CH solve" true (farr_eq x x_true)
  done

let test_toeplitz_solve_singular_raises () =
  (* the all-ones Toeplitz matrix is singular for n >= 2 *)
  let n = 4 in
  let d = Array.make ((2 * n) - 1) F.one in
  check_bool "singular raises" true
    (try ignore (TC.solve ~n d (Array.make n F.one)); false
     with Division_by_zero -> true)

(* ---- ops accounting (regression: hankel_blackbox used to report 0) ---- *)

let test_hankel_ops_nonzero () =
  let st = st0 11 in
  List.iter
    (fun n ->
      let h = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
      let bb = hankel_blackbox ~n h in
      check_int "dim" n bb.Bb.dim;
      check_bool
        (Printf.sprintf "hankel ops_per_apply > 0 (n=%d)" n)
        true (bb.Bb.ops_per_apply > 0);
      (* and it is at least the trivial lower bound: n outputs each touch
         some inputs; Karatsuba convolution is superlinear in n *)
      check_bool "ops >= n" true (bb.Bb.ops_per_apply >= n))
    [ 1; 2; 5; 16 ]

let test_ops_accounting_additive () =
  let st = st0 12 in
  let n = 9 in
  let a1 = M.random_nonsingular st n and a2 = M.random_nonsingular st n in
  let b1 = Bb.of_dense a1 and b2 = Bb.of_dense a2 in
  check_bool "dense bb charges ops" true (b1.Bb.ops_per_apply > 0);
  let prod = Bb.compose b1 b2 in
  check_int "compose sums component costs"
    (b1.Bb.ops_per_apply + b2.Bb.ops_per_apply)
    prod.Bb.ops_per_apply;
  let d = Array.init n (fun _ -> F.random st) in
  let scaled = Bb.scale_columns prod d in
  check_int "scale_columns adds one mul per column"
    (prod.Bb.ops_per_apply + n)
    scaled.Bb.ops_per_apply;
  (* the preconditioned operator A·H(h)·D therefore has a nonzero summed
     cost even though H is applied by convolution, not a stored matrix *)
  let h = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
  let pre = Bb.scale_columns (Bb.compose b1 (hankel_blackbox ~n h)) d in
  check_bool "preconditioned cost > dense alone" true
    (pre.Bb.ops_per_apply > b1.Bb.ops_per_apply)

let test_hankel_blackbox_matches_dense () =
  (* the instrumented Hankel black box must still be the Hankel matrix *)
  let st = st0 13 in
  let n = 7 in
  let h = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
  let bb = hankel_blackbox ~n h in
  let dense = M.init n n (fun i j -> h.(i + j)) in
  let x = Array.init n (fun _ -> F.random st) in
  check_bool "matvec agrees" true (farr_eq (Bb.apply bb x) (M.matvec dense x));
  match bb.Bb.apply_transpose with
  | None -> ()
  | Some at ->
    (* Hankel matrices are symmetric, so Aᵀx = Ax *)
    check_bool "transpose agrees (symmetric)" true
      (farr_eq (at x) (M.matvec dense x))

let test_solve_preconditioned_with_counters () =
  let module Counter = Kp_obs.Counter in
  let st = st0 14 in
  let n = 12 in
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  let before name = Option.value ~default:0 (Counter.find name) in
  let applies0 = before "blackbox.applies" in
  let ops0 = before "blackbox.ops" in
  let attempts0 = before "wiedemann.attempts" in
  match W.solve_preconditioned st (Bb.of_dense a) b with
  | Error e -> Alcotest.fail (W.O.error_to_string e)
  | Ok (x, report) ->
    let attempts = report.W.O.attempts in
    check_bool "preconditioned solution" true (farr_eq x x_true);
    check_bool "attempts >= 1" true (attempts >= 1);
    check_bool "blackbox applies counted" true
      (before "blackbox.applies" > applies0);
    check_bool "blackbox ops counted" true (before "blackbox.ops" > ops0);
    check_int "wiedemann attempts counted" (attempts0 + attempts)
      (before "wiedemann.attempts")

(* a solve keeps its Krylov basis when one apply of A costs at least n²
   operations, so Cayley–Hamilton reads Ãⁱ·b instead of applying Ã again:
   2n − 1 applies of Ã plus the residual apply of A.  The same box with
   an unknown cost keeps nothing and pays n − 1 more *)
let test_kept_basis_applies () =
  let module Counter = Kp_obs.Counter in
  let n = 64 in
  let st = st0 15 in
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  let count name = Option.value ~default:0 (Counter.find name) in
  let applies bb =
    let all0 = count "blackbox.applies" in
    let pre0 = count "blackbox.preconditioned.applies" in
    match W.solve_preconditioned (st0 16) bb b with
    | Error e -> Alcotest.fail (W.O.error_to_string e)
    | Ok (x, report) ->
      check_bool "solution" true (farr_eq x x_true);
      check_int "one attempt" 1 report.W.O.attempts;
      ( count "blackbox.preconditioned.applies" - pre0,
        count "blackbox.applies" - all0 )
  in
  let dense = Bb.of_dense a in
  let pre, all = applies dense in
  check_int "dense: 2n - 1 applies of A~" ((2 * n) - 1) pre;
  check_int "dense: plus one residual apply of A" (2 * n) all;
  let pre, all = applies { dense with Bb.ops_per_apply = 0 } in
  check_int "unknown cost: 3n - 2 applies of A~" ((3 * n) - 2) pre;
  check_int "unknown cost: plus one residual apply of A" ((3 * n) - 1) all

(* the block engine iterates the same instrumented Ã: a first-attempt
   solve at n = 64, b = 4 runs b Krylov passes of σ = 2⌈n/b⌉ + 3 = 35
   terms, b·(σ − 1) = 136 applies of Ã, and each column keeps all σ of
   its vectors on a dense A, so Cayley–Hamilton applies nothing more;
   the residual is one apply of A *)
let test_block_applies () =
  let module Counter = Kp_obs.Counter in
  let module BW = Kp_core.Block_wiedemann.Make (F) in
  let n = 64 in
  let st = st0 17 in
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  let count name = Option.value ~default:0 (Counter.find name) in
  let all0 = count "blackbox.applies" in
  let pre0 = count "blackbox.preconditioned.applies" in
  match BW.solve ~block_factor:4 (st0 18) (Bb.of_dense a) b with
  | Error e -> Alcotest.fail (W.O.error_to_string e)
  | Ok (x, report) ->
    check_bool "solution" true (farr_eq x x_true);
    check_int "one attempt" 1 report.W.O.attempts;
    check_int "b (sigma - 1) applies of A~" 136
      (count "blackbox.preconditioned.applies" - pre0);
    check_int "plus one residual apply of A" 137 (count "blackbox.applies" - all0)

(* a sparse black box ticks the kernel counters exactly as the CSR
   product it replaced: one kernel call per apply of A, by the matrix's
   own entry count (never a padded SELL-8 count), so a first-attempt
   solve_preconditioned on a sparse n = 64 box ticks the applies, calls
   and bulk operations it ticked when each apply was one
   csr_matvec_into *)
let test_sparse_counters_pinned () =
  let module Counter = Kp_obs.Counter in
  let n = 64 in
  let st = st0 19 in
  let s = Sp.random_nonsingular st n ~density:0.1 in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = Sp.matvec s x_true in
  let bb = Bb.of_sparse s in
  let pinned =
    [ ("blackbox.applies", 184); ("kernel.cstub.calls", 817);
      ("kernel.bulk_ops", 222761) ]
  in
  let snap () =
    List.map
      (fun (name, _) -> Option.value ~default:0 (Counter.find name))
      pinned
  in
  let s0 = snap () in
  match W.solve_preconditioned (st0 20) bb b with
  | Error e -> Alcotest.fail (W.O.error_to_string e)
  | Ok (x, report) ->
    check_bool "solution" true (farr_eq x x_true);
    check_int "one attempt" 1 report.W.O.attempts;
    List.iter2
      (fun (name, want) got -> check_int name want got)
      pinned
      (List.map2 ( - ) (snap ()) s0)

(* ---- cross-validation: counting field vs circuit size ---- *)

let test_counting_equals_circuit_size () =
  (* the same straight-line functor, instrumented two ways, must agree:
     ops counted by the Counting wrapper = arithmetic gates of the traced
     circuit (constants are free on both sides) *)
  let module Cnt = Kp_field.Counting.Make (F) in
  let module CCK = Kp_poly.Conv.Karatsuba (Cnt) in
  let module CTC = Kp_structured.Toeplitz_charpoly.Make (Cnt) (CCK) in
  let st = st0 9 in
  List.iter
    (fun n ->
      let d = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
      (* counting *)
      Cnt.reset ();
      let _, ops =
        Cnt.measure (fun () -> ignore (CTC.charpoly ~n (Array.map Cnt.of_int d)))
      in
      let counted = Kp_field.Counting.total ops in
      (* tracing *)
      let module B = Kp_circuit.Circuit.Builder () in
      let module BCK = Kp_poly.Conv.Karatsuba (B) in
      let module BTC = Kp_structured.Toeplitz_charpoly.Make (B) (BCK) in
      let inputs = Array.map (fun _ -> B.fresh_input ()) d in
      let cp = BTC.charpoly ~n inputs in
      B.finish ~outputs:cp;
      let stats = Kp_circuit.Circuit.stats B.circuit in
      check_int
        (Printf.sprintf "ops = gates (n=%d)" n)
        counted stats.Kp_circuit.Circuit.size)
    [ 2; 4; 7 ]

let test_traced_charpoly_evaluates_correctly () =
  (* the traced circuit, replayed over the concrete field, must equal the
     directly computed characteristic polynomial *)
  let st = st0 10 in
  let n = 6 in
  let d = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
  let module B = Kp_circuit.Circuit.Builder () in
  let module BCK = Kp_poly.Conv.Karatsuba (B) in
  let module BTC = Kp_structured.Toeplitz_charpoly.Make (B) (BCK) in
  let inputs = Array.map (fun _ -> B.fresh_input ()) d in
  let cp = BTC.charpoly ~n inputs in
  B.finish ~outputs:cp;
  let replayed =
    Kp_circuit.Circuit.eval (module F) B.circuit ~inputs:d ~randoms:[||]
  in
  let direct = TC.charpoly ~n d in
  check_bool "replay = direct" true (farr_eq replayed direct)

let () =
  Alcotest.run "kp_wiedemann"
    [
      ( "blackbox",
        [
          Alcotest.test_case "solve (dense bb)" `Quick test_solve_dense_blackbox;
          Alcotest.test_case "solve (sparse bb)" `Quick test_solve_sparse_blackbox;
          Alcotest.test_case "solve (composed bb)" `Quick test_solve_composed_blackbox;
          Alcotest.test_case "det" `Quick test_det_blackbox;
          Alcotest.test_case "det singular" `Quick test_det_singular_blackbox;
          Alcotest.test_case "min poly" `Quick test_minpoly_is_dense_minpoly;
          Alcotest.test_case "singularity certificate" `Quick test_singularity_certificate;
          Alcotest.test_case "empty black box rejected" `Quick
            test_empty_blackbox_rejected;
        ] );
      ( "ops-accounting",
        [
          Alcotest.test_case "hankel ops nonzero" `Quick test_hankel_ops_nonzero;
          Alcotest.test_case "compose/scale additive" `Quick test_ops_accounting_additive;
          Alcotest.test_case "hankel bb = dense Hankel" `Quick test_hankel_blackbox_matches_dense;
          Alcotest.test_case "preconditioned solve + counters" `Quick
            test_solve_preconditioned_with_counters;
          Alcotest.test_case "kept Krylov basis: 2n - 1 applies" `Quick
            test_kept_basis_applies;
          Alcotest.test_case "sparse counters pinned" `Quick
            test_sparse_counters_pinned;
          Alcotest.test_case "block solve: b (sigma - 1) applies" `Quick
            test_block_applies;
        ] );
      ( "toeplitz-solve",
        [
          Alcotest.test_case "solve" `Quick test_toeplitz_solve;
          Alcotest.test_case "singular raises" `Quick test_toeplitz_solve_singular_raises;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "counting = circuit size" `Quick test_counting_equals_circuit_size;
          Alcotest.test_case "traced charpoly replays" `Quick test_traced_charpoly_evaluates_correctly;
        ] );
    ]
