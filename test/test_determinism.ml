(* Determinism of the pool's fan-outs: for every domain count, a pooled
   run must return the exact array/matrix the sequential run returns — not
   an approximation, the identical field elements.  The pool reaches three
   places: the row blocks of [Dense.mul_parallel], the columns of
   [Inverse.inverse_via_solves] (each column's solve nesting its products
   on the same pool) and a session batch's right-hand sides (pinned in
   test_session).  The invariant they rely on — pure field ops, disjoint
   index writes, a per-column RNG split fixed before the fan-out — is
   checked here property-style over random inputs for domains ∈ {1, 2, 4},
   each property on its own short-lived pool. *)

module F = Kp_field.Fields.Gf_ntt
module CK = Kp_poly.Conv.Karatsuba (F)
module M = Kp_matrix.Dense.Make (F)
module I = Kp_core.Inverse.Make (F) (CK)
module S = Kp_core.Solver.Make (F) (CK)
module Pool = Kp_util.Pool

let domain_counts = Test_seeds.domain_counts

let rand_array st len = Array.init len (fun _ -> F.random st)

let with_each_pool f =
  List.for_all (fun domains -> Pool.with_pool ~domains (f ~domains)) domain_counts

(* dense matrix product *)
let prop_mul_parallel =
  QCheck.Test.make ~name:"mul_parallel = mul (domains 1/2/4)" ~count:12
    (QCheck.pair (QCheck.int_range 1 40) QCheck.small_int)
    (fun (n, seed) ->
      let st = Kp_util.Rng.make (seed + (1000 * n)) in
      let a = M.random st n n and b = M.random st n n in
      let expected = M.mul a b in
      with_each_pool (fun ~domains:_ pool ->
          M.equal (M.mul_parallel pool a b) expected))

(* the full solver on the pool: answers and attempt counts are a
   function of the seed alone — the pool is invisible to results *)
let prop_pooled_solve =
  QCheck.Test.make ~name:"pooled solve = sequential (domains 1/2/4)" ~count:4
    (QCheck.pair (QCheck.int_range 2 10) QCheck.small_int)
    (fun (n, seed) ->
      let fresh () = Kp_util.Rng.make (seed + (211 * n)) in
      let st = fresh () in
      let a = M.random_nonsingular st n in
      let b = rand_array st n in
      let engines = [ (fun ?pool st -> S.solve ?pool st a b) ] in
      let run ?pool solve =
        let st = fresh () in
        ignore (M.random_nonsingular st n);
        ignore (rand_array st n);
        solve ?pool st
      in
      List.for_all
        (fun solve ->
          match run solve with
          | Error _ -> QCheck.Test.fail_report "sequential reference run failed"
          | Ok (expected, rep) ->
            with_each_pool (fun ~domains:_ pool ->
                match run ~pool solve with
                | Ok (x, r) ->
                  Array.for_all2 F.equal x expected
                  && r.Kp_robust.Outcome.attempts
                     = rep.Kp_robust.Outcome.attempts
                | Error _ -> false))
        engines)

(* inverse via n solves: the per-column RNG pre-split must make the result
   a function of the seed alone, pooled or not *)
let prop_inverse_via_solves =
  QCheck.Test.make
    ~name:"inverse_via_solves pooled = sequential (domains 1/2/4)" ~count:4
    (QCheck.pair (QCheck.int_range 2 8) QCheck.small_int)
    (fun (n, seed) ->
      let fresh () = Kp_util.Rng.make (seed + (101 * n)) in
      let a = M.random_nonsingular (fresh ()) n in
      (* every run re-derives the identical post-generation state, so the
         only variable between runs is the pool *)
      let run pool =
        let st = fresh () in
        ignore (M.random_nonsingular st n);
        I.inverse_via_solves ?pool st a
      in
      match run None with
      | Error _ -> QCheck.Test.fail_report "sequential reference run failed"
      | Ok (expected, _) ->
        with_each_pool (fun ~domains:_ pool ->
            match run (Some pool) with
            | Ok (inv, _) -> M.equal inv expected
            | Error _ -> false))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "determinism"
    [
      ( "pooled kernels",
        qsuite
          [
            prop_mul_parallel;
            prop_pooled_solve;
            prop_inverse_via_solves;
          ] );
    ]
