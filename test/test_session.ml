(* Session suite: the cache-equivalence and fault-injection guardrails of
   Kp_session.

   Equivalence: a sessioned solve/det/inverse must return exactly what the
   fresh engines return — the identical field elements on nonsingular
   inputs (answers are unique), the identical typed Outcome constructor on
   singular ones — over GF(97), the NTT prime field, GF(2⁸) and Q, and for
   pools of 1, 2 and 4 domains (the batch fan-out must not change answers).

   Fault injection: a corrupted cached charpoly must be *detected* (solve:
   the live A·x = b certificate; det: the PR-2 two-evaluation discipline
   with the cache as one side), *evicted* (session.cache.evict moves) and
   *recomputed* — the corrupted record is never served as an answer. *)

module O = Kp_robust.Outcome
module Cnt = Kp_obs.Counter

let counter name = Option.value ~default:0 (Cnt.find name)

module type PROFILE = sig
  val name : string
  val n : int
  val singular_n : int
end

module Suite (F : Kp_field.Field_intf.FIELD) (P : PROFILE) = struct
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module S = Kp_core.Solver.Make (F) (C)
  module I = Kp_core.Inverse.Make (F) (C)
  module Sess = Kp_session.Session.Make (F) (C)

  let vec_equal = Array.for_all2 F.equal

  let ctx seed what = Printf.sprintf "%s seed=%d: %s" P.name seed what

  let fail_typed seed what e =
    Alcotest.failf "%s" (ctx seed (what ^ ": " ^ O.error_to_string e))

  (* sessioned solve_many / det / inverse vs the fresh engines and the
     Gauss oracle, across pool sizes — one cached build behind it all *)
  let test_equivalence () =
    List.iter
      (fun seed ->
        List.iter
          (fun domains ->
            Kp_util.Pool.with_pool ~domains @@ fun p ->
            let pool = if domains > 1 then Some p else None in
            let n = P.n in
            let st = Kp_util.Rng.make seed in
            let a = M.random_nonsingular st n in
            let k = 3 in
            let bs =
              Array.init k (fun _ -> Array.init n (fun _ -> F.random st))
            in
            let hit0 = counter "session.cache.hit" in
            let miss0 = counter "session.cache.miss" in
            let sess = Sess.create ?pool (Kp_util.Rng.make (seed + 1)) in
            let results = Sess.solve_many sess a bs in
            Array.iteri
              (fun i r ->
                match (r, G.solve a bs.(i)) with
                | Ok (x, _), Some x_ref ->
                  Alcotest.(check bool)
                    (ctx seed (Printf.sprintf "solve_many[%d] = oracle (domains %d)" i domains))
                    true (vec_equal x x_ref)
                | Ok _, None ->
                  Alcotest.failf "%s" (ctx seed "oracle called the matrix singular")
                | Error e, _ -> fail_typed seed "solve_many" e)
              results;
            (* per-RHS solves after the batch: all hits, same answers *)
            Array.iteri
              (fun i b ->
                match Sess.solve sess a b with
                | Ok (x, _) ->
                  Alcotest.(check bool)
                    (ctx seed (Printf.sprintf "re-solve[%d] hits cache" i))
                    true
                    (vec_equal x (Option.get (G.solve a b)))
                | Error e -> fail_typed seed "re-solve" e)
              bs;
            (match (Sess.det sess a, S.det (Kp_util.Rng.make (seed + 2)) a) with
            | Ok (d, _), Ok (d_fresh, _) ->
              Alcotest.(check bool) (ctx seed "det = fresh det") true (F.equal d d_fresh);
              Alcotest.(check bool) (ctx seed "det = oracle") true (F.equal d (G.det a))
            | Error e, _ | _, Error e -> fail_typed seed "det" e);
            (match Sess.inverse sess a with
            | Ok (inv, _) ->
              Alcotest.(check bool) (ctx seed "inverse = oracle") true
                (M.equal inv (Option.get (G.inverse a)))
            | Error e -> fail_typed seed "inverse" e);
            (* counters: exactly one charpoly computation behind the whole
               conversation — 1 miss, everything else hits, no evictions *)
            let s = Sess.stats sess in
            Alcotest.(check int) (ctx seed "misses = 1") 1 s.Sess.misses;
            Alcotest.(check int) (ctx seed "hits = k + 2") (k + 2) s.Sess.hits;
            Alcotest.(check int) (ctx seed "evictions = 0") 0 s.Sess.evictions;
            Alcotest.(check int)
              (ctx seed "global session.cache.miss moved with the session")
              (miss0 + s.Sess.misses)
              (counter "session.cache.miss");
            Alcotest.(check int)
              (ctx seed "global session.cache.hit moved with the session")
              (hit0 + s.Sess.hits)
              (counter "session.cache.hit"))
          Test_seeds.domain_counts)
      Test_seeds.shared_seeds

  (* singular inputs: the same typed outcome as the fresh engines, served
     from one cached singularity verdict *)
  let test_singular () =
    List.iter
      (fun seed ->
        let n = P.singular_n in
        let st = Kp_util.Rng.make seed in
        let a = M.random_of_rank st n ~rank:(n - 2) in
        let b = Array.init n (fun _ -> F.random st) in
        Alcotest.(check bool) (ctx seed "oracle sees singular") true (G.is_singular a);
        let sess = Sess.create (Kp_util.Rng.make (seed + 1)) in
        (match Sess.solve sess a b with
        | Error (O.Singular _) -> ()
        | Ok _ -> Alcotest.failf "%s" (ctx seed "solve accepted a singular system")
        | Error e -> fail_typed seed "solve (expected Singular)" e);
        (match S.solve (Kp_util.Rng.make (seed + 2)) a b with
        | Error (O.Singular _) -> ()
        | Ok _ -> Alcotest.failf "%s" (ctx seed "fresh solve accepted a singular system")
        | Error e -> fail_typed seed "fresh solve (expected Singular)" e);
        (match Sess.det sess a with
        | Ok (d, _) -> Alcotest.(check bool) (ctx seed "det = 0") true (F.is_zero d)
        | Error e -> fail_typed seed "det" e);
        (match Sess.inverse sess a with
        | Error (O.Singular _) -> ()
        | Ok _ -> Alcotest.failf "%s" (ctx seed "inverse accepted a singular matrix")
        | Error e -> fail_typed seed "inverse (expected Singular)" e);
        let s = Sess.stats sess in
        Alcotest.(check int) (ctx seed "singular verdict cached once") 1 s.Sess.misses)
      Test_seeds.shared_seeds

  let tests =
    [
      Alcotest.test_case (P.name ^ " equivalence") `Quick test_equivalence;
      Alcotest.test_case (P.name ^ " singular") `Quick test_singular;
    ]
end

(* ---- fault injection: a poisoned cache is detected, evicted, rebuilt ---- *)

module FI = struct
  module F = Kp_field.Fields.Gf_ntt
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let n = 6

  let setup seed =
    let st = Kp_util.Rng.make seed in
    let a = M.random_nonsingular st n in
    let b = Array.init n (fun _ -> F.random st) in
    let sess = Sess.create (Kp_util.Rng.make (seed + 1)) in
    (a, b, sess)

  (* corrupt the constant term: changes the cached determinant AND the
     Cayley–Hamilton recovery, so both serve paths must notice *)
  let corrupt f =
    Array.mapi (fun i c -> if i = 0 then F.add c F.one else c) f

  let has_stale_rejection (r : Kp_robust.Outcome.report) =
    List.exists
      (fun rj ->
        match rj.Kp_robust.Outcome.reason with
        | Kp_robust.Outcome.Stale_cache _ -> true
        | _ -> false)
      r.Kp_robust.Outcome.rejections

  let test_poisoned_solve () =
    List.iter
      (fun seed ->
        let a, b, sess = setup seed in
        (match Sess.solve sess a b with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "build: %s" (Kp_robust.Outcome.error_to_string e));
        Alcotest.(check bool) "poison hook found the entry" true
          (Sess.poison_charpoly sess a corrupt);
        let evict0 = counter "session.cache.evict" in
        (match Sess.solve sess a b with
        | Ok (x, report) ->
          (* the served answer is the true solution — the poisoned record
             was never served — and the report says why it took work *)
          Alcotest.(check bool) "recovered solution = oracle" true
            (Array.for_all2 F.equal x (Option.get (G.solve a b)));
          Alcotest.(check bool) "report carries a Stale_cache rejection" true
            (has_stale_rejection report)
        | Error e -> Alcotest.failf "post-poison solve: %s" (Kp_robust.Outcome.error_to_string e));
        let s = Sess.stats sess in
        Alcotest.(check bool) "poisoned entry evicted" true (s.Sess.evictions >= 1);
        Alcotest.(check bool) "global evict counter moved" true
          (counter "session.cache.evict" >= evict0 + 1);
        Alcotest.(check int) "rebuilt exactly once" 2 s.Sess.misses;
        (* the rebuilt entry serves cleanly again *)
        match Sess.solve sess a b with
        | Ok (x, report) ->
          Alcotest.(check bool) "rebuilt cache serves the oracle answer" true
            (Array.for_all2 F.equal x (Option.get (G.solve a b)));
          Alcotest.(check bool) "no stale rejection after rebuild" false
            (has_stale_rejection report)
        | Error e -> Alcotest.failf "post-rebuild solve: %s" (Kp_robust.Outcome.error_to_string e))
      Test_seeds.shared_seeds

  let test_poisoned_det () =
    List.iter
      (fun seed ->
        let a, b, sess = setup seed in
        (match Sess.solve sess a b with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "build: %s" (Kp_robust.Outcome.error_to_string e));
        Alcotest.(check bool) "poison hook found the entry" true
          (Sess.poison_charpoly sess a corrupt);
        (match Sess.det sess a with
        | Ok (d, report) ->
          (* two-evaluation discipline: the cached (corrupted) value
             disagrees with the fresh evaluation, so the entry is evicted
             and the served determinant is the true one *)
          Alcotest.(check bool) "served det = oracle, not the poisoned value" true
            (F.equal d (G.det a));
          Alcotest.(check bool) "report carries a Stale_cache rejection" true
            (has_stale_rejection report)
        | Error e -> Alcotest.failf "post-poison det: %s" (Kp_robust.Outcome.error_to_string e));
        let s = Sess.stats sess in
        Alcotest.(check bool) "poisoned entry evicted" true (s.Sess.evictions >= 1);
        (* a second det is served from the re-certified rebuild: no new
           build, no new eviction *)
        let misses = s.Sess.misses in
        (match Sess.det sess a with
        | Ok (d, _) ->
          Alcotest.(check bool) "re-served det = oracle" true (F.equal d (G.det a))
        | Error e -> Alcotest.failf "re-served det: %s" (Kp_robust.Outcome.error_to_string e));
        Alcotest.(check int) "no extra build for the re-serve" misses
          (Sess.stats sess).Sess.misses)
      Test_seeds.shared_seeds

  (* a poisoned record must also never leak through a batch *)
  let test_poisoned_batch () =
    let seed = List.hd Test_seeds.shared_seeds in
    let a, b, sess = setup seed in
    (match Sess.solve sess a b with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "build: %s" (Kp_robust.Outcome.error_to_string e));
    Alcotest.(check bool) "poison hook found the entry" true
      (Sess.poison_charpoly sess a corrupt);
    let st = Kp_util.Rng.make (seed + 7) in
    let bs = Array.init 4 (fun _ -> Array.init n (fun _ -> F.random st)) in
    let results = Sess.solve_many sess a bs in
    Array.iteri
      (fun i r ->
        match r with
        | Ok (x, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "batch[%d] recovered the oracle answer" i)
            true
            (Array.for_all2 F.equal x (Option.get (G.solve a bs.(i))))
        | Error e ->
          Alcotest.failf "batch[%d]: %s" i (Kp_robust.Outcome.error_to_string e))
      results;
    Alcotest.(check bool) "batch evicted the poisoned entry" true
      ((Sess.stats sess).Sess.evictions >= 1)

  (* cross-kind reuse: an entry whose recorded preconditioner kind differs
     from the session's live kind must never validate a certificate — a
     typed Stale_cache eviction and rebuild, for both serve paths *)
  let test_poisoned_kind () =
    let module Pc = Kp_precond.Precond in
    (* two kinds other than the session's live one (KP_PRECOND may move it),
       resolved as the session resolves it: for a black box *)
    let live = Pc.resolve ~sparse:true (Pc.default_choice ()) in
    let other1, other2 =
      match List.filter (fun k -> k <> live) Pc.all_kinds with
      | k1 :: k2 :: _ -> (k1, k2)
      | _ -> assert false
    in
    List.iter
      (fun seed ->
        let a, b, sess = setup seed in
        (match Sess.solve sess a b with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "build: %s" (Kp_robust.Outcome.error_to_string e));
        Alcotest.(check bool) "poison hook found the entry" true
          (Sess.poison_kind sess a other1);
        (match Sess.solve sess a b with
        | Ok (x, report) ->
          Alcotest.(check bool) "cross-kind solve recovers the oracle answer"
            true
            (Array.for_all2 F.equal x (Option.get (G.solve a b)));
          Alcotest.(check bool) "report carries a typed Stale_cache rejection"
            true (has_stale_rejection report)
        | Error e ->
          Alcotest.failf "cross-kind solve: %s" (Kp_robust.Outcome.error_to_string e));
        let s = Sess.stats sess in
        Alcotest.(check bool) "cross-kind entry evicted" true
          (s.Sess.evictions >= 1);
        Alcotest.(check int) "rebuilt exactly once" 2 s.Sess.misses;
        (* the same guard covers the det path *)
        Alcotest.(check bool) "poison hook found the rebuilt entry" true
          (Sess.poison_kind sess a other2);
        (match Sess.det sess a with
        | Ok (d, report) ->
          Alcotest.(check bool) "cross-kind det = oracle" true
            (F.equal d (G.det a));
          Alcotest.(check bool) "det report carries Stale_cache" true
            (has_stale_rejection report)
        | Error e ->
          Alcotest.failf "cross-kind det: %s" (Kp_robust.Outcome.error_to_string e));
        Alcotest.(check bool) "det evicted the cross-kind entry too" true
          ((Sess.stats sess).Sess.evictions >= 2))
      Test_seeds.shared_seeds

  (* sessions of different preconditioner kinds never share cache entries:
     the kind is part of the fingerprint, so a cross-kind lookup is a plain
     miss (fresh build), not a reuse *)
  let test_cross_kind_sessions () =
    let module Pc = Kp_precond.Precond in
    let seed = List.hd Test_seeds.shared_seeds in
    let st = Kp_util.Rng.make seed in
    let a = M.random_nonsingular st n in
    let b = Array.init n (fun _ -> F.random st) in
    let dense_sess =
      Sess.create ~precond:(Pc.Forced Pc.Dense_hd) (Kp_util.Rng.make (seed + 1))
    in
    let sparse_sess =
      Sess.create
        ~precond:(Pc.Forced Pc.Sparse_butterfly)
        (Kp_util.Rng.make (seed + 1))
    in
    Alcotest.(check bool) "kinds partition the fingerprint space" false
      (Kp_session.Fingerprint.equal
         (Sess.fingerprint_of dense_sess a)
         (Sess.fingerprint_of sparse_sess a));
    (match (Sess.solve dense_sess a b, Sess.solve sparse_sess a b) with
    | Ok (x1, _), Ok (x2, _) ->
      Alcotest.(check bool) "both kinds serve the oracle answer" true
        (Array.for_all2 F.equal x1 x2
        && Array.for_all2 F.equal x1 (Option.get (G.solve a b)))
    | Error e, _ | _, Error e ->
      Alcotest.failf "cross-kind sessions: %s" (Kp_robust.Outcome.error_to_string e));
    Alcotest.(check int) "dense session built its own entry" 1
      (Sess.stats dense_sess).Sess.misses;
    Alcotest.(check int) "sparse session built its own entry" 1
      (Sess.stats sparse_sess).Sess.misses

  let tests =
    [
      Alcotest.test_case "poisoned charpoly: solve detects, evicts, rebuilds"
        `Quick test_poisoned_solve;
      Alcotest.test_case "poisoned charpoly: det two-evaluation discipline"
        `Quick test_poisoned_det;
      Alcotest.test_case "poisoned charpoly: batch never serves it" `Quick
        test_poisoned_batch;
      Alcotest.test_case "cross-kind entry: typed Stale_cache, evict, rebuild"
        `Quick test_poisoned_kind;
      Alcotest.test_case "kind partitions the cache (no cross-kind reuse)"
        `Quick test_cross_kind_sessions;
    ]
end

(* ---- capacity bound: the cache is LRU past max_entries ---- *)

module LRU = struct
  module F = Kp_field.Fields.Gf_ntt
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let n = 4

  (* max_entries = 3; insert m1 m2 m3, touch m1, insert m4.  The LRU entry
     is m2: it must be the one dropped (m1 was refreshed by its hit), and
     the drop must be a *capacity* eviction — stale evictions stay 0, a
     capacity drop implies nothing about the entry's validity. *)
  let test_lru_eviction () =
    let st = Kp_util.Rng.make 41 in
    let ms = Array.init 4 (fun _ -> M.random_nonsingular st n) in
    let b = Array.init n (fun _ -> F.random st) in
    let cap0 = counter "session.cache.evict_capacity" in
    let sess = Sess.create ~max_entries:3 (Kp_util.Rng.make 42) in
    let solve_ok what m =
      match Sess.solve sess m b with
      | Ok (x, _) ->
        Alcotest.(check bool) (what ^ " = oracle") true
          (Array.for_all2 F.equal x (Option.get (G.solve m b)))
      | Error e -> Alcotest.failf "%s: %s" what (O.error_to_string e)
    in
    solve_ok "m1" ms.(0);
    solve_ok "m2" ms.(1);
    solve_ok "m3" ms.(2);
    solve_ok "m1 again" ms.(0);
    Alcotest.(check int) "full cache, no eviction yet" 0
      (Sess.stats sess).Sess.capacity_evictions;
    solve_ok "m4 (max+1-th entry)" ms.(3);
    let s = Sess.stats sess in
    Alcotest.(check int) "max+1-th insert evicted exactly one entry" 1
      s.Sess.capacity_evictions;
    Alcotest.(check int) "capacity drop is not a stale eviction" 0
      s.Sess.evictions;
    (* m1 was refreshed, so it survived the eviction... *)
    solve_ok "m1 survives (was recently used)" ms.(0);
    Alcotest.(check int) "m1 still cached" (Sess.stats sess).Sess.misses
      s.Sess.misses;
    (* ...and m2 was the least-recently-used victim: re-solving it misses *)
    solve_ok "m2 was evicted" ms.(1);
    Alcotest.(check int) "re-solving the LRU victim rebuilds"
      (s.Sess.misses + 1)
      (Sess.stats sess).Sess.misses;
    Alcotest.(check int) "global capacity counter moved with the session"
      (cap0 + (Sess.stats sess).Sess.capacity_evictions)
      (counter "session.cache.evict_capacity")

  let test_bad_bound () =
    Alcotest.check_raises "max_entries = 0 rejected"
      (Invalid_argument "Session.create: max_entries < 1") (fun () ->
        ignore (Sess.create ~max_entries:0 (Kp_util.Rng.make 1)))

  let tests =
    [
      Alcotest.test_case "LRU capacity eviction" `Quick test_lru_eviction;
      Alcotest.test_case "bounds validated" `Quick test_bad_bound;
    ]
end

(* ---- pool: the stale-cache discipline on a pooled session ---- *)

(* pooled answers and cache statistics are pinned by each suite's
   equivalence case (domains 1/2/4); this pins the fault side: a poisoned
   charpoly is detected by the live certificate, evicted and rebuilt on a
   2-domain pool — the pooled serve never leaks the corrupted record *)
module Pooled = struct
  module F = Kp_field.Fields.Gf_ntt
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let n = 6

  let test_pooled_stale_cache () =
    Kp_util.Pool.with_pool ~domains:2 @@ fun pool ->
    let st = Kp_util.Rng.make 81 in
    let a = M.random_nonsingular st n in
    let b = Array.init n (fun _ -> F.random st) in
    let sess = Sess.create ~pool (Kp_util.Rng.make 82) in
    (match Sess.solve sess a b with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "build: %s" (O.error_to_string e));
    Alcotest.(check bool) "poison hook found the entry" true
      (Sess.poison_charpoly sess a
         (Array.mapi (fun i c -> if i = 0 then F.add c F.one else c)));
    (match Sess.solve sess a b with
    | Ok (x, _) ->
      Alcotest.(check bool) "pooled serve recovered the oracle answer" true
        (Array.for_all2 F.equal x (Option.get (G.solve a b)))
    | Error e -> Alcotest.failf "post-poison solve: %s" (O.error_to_string e));
    Alcotest.(check bool) "poisoned entry evicted on the pool" true
      ((Sess.stats sess).Sess.evictions >= 1)

  let tests =
    [
      Alcotest.test_case "stale-cache discipline intact on a pool" `Quick
        test_pooled_stale_cache;
    ]
end

(* ---- the cost shape of a black-box session, and its safety ---- *)

(* an entry is the black-box prefix: a first-attempt build runs one Krylov
   pass of 2n terms (2n − 1 applies of Ã), a keyed serve Cayley–Hamilton's
   n − 1 and no matrix product, so it allocates O(n) words *)
module Cost = struct
  module F = Kp_field.Fields.Gf_ntt
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let solve_ok what sess ?key a b =
    match Sess.solve ?key sess a b with
    | Ok (x, _) ->
      Alcotest.(check bool) (what ^ " = oracle") true
        (Array.for_all2 F.equal x (Option.get (G.solve a b)))
    | Error e -> Alcotest.failf "%s: %s" what (O.error_to_string e)

  let test_applies () =
    let n = 64 in
    let st = Kp_util.Rng.make 61 in
    let a = M.random_nonsingular st n in
    let rhs () = Array.init n (fun _ -> F.random st) in
    let sess = Sess.create (Kp_util.Rng.make 62) in
    let applies () = counter "blackbox.applies" in
    let attempts0 = counter "wiedemann.attempts" and a0 = applies () in
    solve_ok "first keyed solve" sess ~key:"a" a (rhs ());
    let a1 = applies () in
    Alcotest.(check int) "the build took one attempt" (attempts0 + 1)
      (counter "wiedemann.attempts");
    solve_ok "second keyed solve" sess ~key:"a" a (rhs ());
    let serve = applies () - a1 in
    Alcotest.(check int) "a keyed serve ticks n - 1 applies" (n - 1) serve;
    Alcotest.(check int) "a first-attempt build ticks 2n - 1 applies"
      ((2 * n) - 1)
      (a1 - a0 - serve);
    Alcotest.(check int) "one build behind both" 1 (Sess.stats sess).Sess.misses

  let test_allocation () =
    List.iter
      (fun n ->
        let st = Kp_util.Rng.make (70 + n) in
        let a = M.random_nonsingular st n in
        let b = Array.init n (fun _ -> F.random st) in
        let sess = Sess.create (Kp_util.Rng.make (71 + n)) in
        solve_ok "build" sess ~key:"a" a b;
        solve_ok "warm serve" sess ~key:"a" a b;
        let r, words =
          Test_seeds.allocated_words (fun () -> Sess.solve ~key:"a" sess a b)
        in
        Alcotest.(check bool) "measured serve = oracle" true
          (match r with
          | Ok (x, _) -> Array.for_all2 F.equal x (Option.get (G.solve a b))
          | Error _ -> false);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: a keyed serve allocated %.0f words < 16n + 1024 = %d"
             n words ((16 * n) + 1024))
          true
          (words < float_of_int ((16 * n) + 1024)))
      [ 64; 256 ]

  (* the per-RHS serves fan out over the pool, each on its own Ã: no
     shared buffer may leak one column into another *)
  let test_pooled_batch () =
    Kp_util.Pool.with_pool ~domains:4 @@ fun pool ->
    let n = 48 in
    let st = Kp_util.Rng.make 91 in
    let a = M.random_nonsingular st n in
    let bs = Array.init 16 (fun _ -> Array.init n (fun _ -> F.random st)) in
    let batch0 = counter "pool.session.batch" in
    let sess = Sess.create ~pool (Kp_util.Rng.make 92) in
    Array.iteri
      (fun i r ->
        match r with
        | Ok (x, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "pooled batch[%d] = oracle" i)
            true
            (Array.for_all2 F.equal x (Option.get (G.solve a bs.(i))))
        | Error e -> Alcotest.failf "pooled batch[%d]: %s" i (O.error_to_string e))
      (Sess.solve_many sess a bs);
    Alcotest.(check int) "the batch fanned out on the pool" (batch0 + 1)
      (counter "pool.session.batch");
    (* a race would fail a residual check and be repaired by a rebuild,
       so the answers alone cannot show one: no serve may have failed *)
    Alcotest.(check int) "no serve failed its certificate" 0
      (Sess.stats sess).Sess.evictions

  let tests =
    [
      Alcotest.test_case "build 2n - 1 applies, keyed serve n - 1" `Quick
        test_applies;
      Alcotest.test_case "a keyed serve allocates O(n) words" `Quick
        test_allocation;
      Alcotest.test_case "16-RHS batch on 4 domains = oracle" `Quick
        test_pooled_batch;
    ]
end

(* Small fields: card(K) far below 3n², so most draws fail.  Every
   session answer must still be the oracle's or a typed error — never a
   wrong value, and never [Singular] (or det = 0) for a nonsingular
   matrix: λ | f with det P ≠ 0 is the only witness. *)
module Small_field (F : Kp_field.Field_intf.FIELD) = struct
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let check_input what a =
    let n = a.M.rows in
    let st = Kp_util.Rng.make (Hashtbl.hash what) in
    let b = Array.init n (fun _ -> F.random st) in
    let sess = Sess.create (Kp_util.Rng.make (Hashtbl.hash (what, "s"))) in
    let wrong fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" what m) fmt in
    (match (Sess.solve sess a b, G.solve a b) with
    | Ok (x, _), Some x_ref ->
      if not (Array.for_all2 F.equal x x_ref) then wrong "solve differs from Gauss"
    | Ok _, None -> wrong "solve accepted a singular system"
    | Error (O.Singular _), Some _ -> wrong "Singular for a nonsingular matrix"
    | Error _, _ -> ());
    match Sess.det sess a with
    | Ok (d, _) ->
      if not (F.equal d (G.det a)) then
        wrong "det %s, Gauss says %s" (F.to_string d) (F.to_string (G.det a))
    | Error (O.Singular _) -> wrong "det returned Singular, not det = 0"
    | Error _ -> ()

  let test () =
    List.iter
      (fun n ->
        List.iter
          (fun seed ->
            let st = Kp_util.Rng.make (seed + n) in
            let what kind = Printf.sprintf "%s n=%d seed=%d %s" F.name n seed kind in
            check_input (what "nonsingular") (M.random_nonsingular st n);
            check_input (what "rank n-2") (M.random_of_rank st n ~rank:(n - 2)))
          Test_seeds.shared_seeds)
      [ 8; 24 ]
end

module Small_gf2 = Small_field (Kp_field.Fields.Gf2)

module Small_gf3 = Small_field (Kp_field.Gfp.Make (struct
  let p = 3
end))

module Small_gf7 = Small_field (Kp_field.Gfp.Make (struct
  let p = 7
end))

(* ---- fingerprinting ---- *)

let test_fingerprint () =
  let module F = Kp_field.Fields.Gf_ntt in
  let module C = Kp_poly.Conv.Karatsuba (F) in
  let module M = Kp_matrix.Dense.Make (F) in
  let module Sess = Kp_session.Session.Make (F) (C) in
  let st = Kp_util.Rng.make 5 in
  let a = M.random st 5 5 in
  let b = M.random st 5 5 in
  let fp_a = Sess.fingerprint a and fp_b = Sess.fingerprint b in
  Alcotest.(check bool) "fingerprint is deterministic" true
    (Kp_session.Fingerprint.equal fp_a (Sess.fingerprint a));
  Alcotest.(check bool) "distinct matrices, distinct fingerprints" false
    (Kp_session.Fingerprint.equal fp_a fp_b);
  let keyed = Kp_session.Fingerprint.of_key ~field:F.name ~rows:5 ~cols:5 "a" in
  Alcotest.(check bool) "keyed never equals hashed" false
    (Kp_session.Fingerprint.equal fp_a keyed);
  (* schema v2: the preconditioner tag is part of the identity *)
  let tagged t =
    Kp_session.Fingerprint.of_key ~tag:t ~field:F.name ~rows:5 ~cols:5 "a"
  in
  Alcotest.(check bool) "distinct tags, distinct fingerprints" false
    (Kp_session.Fingerprint.equal (tagged "dense") (tagged "sparse"));
  Alcotest.(check bool) "tag survives the string form" true
    (let s = Kp_session.Fingerprint.to_string (tagged "sparse") in
     String.length s >= 3
     && String.sub s 0 3 = "v2:"
     && Kp_session.Fingerprint.tag (tagged "sparse") = "sparse");
  (* a session keyed by ?key trusts the caller: distinct keys, distinct
     entries, so both matrices get their own build *)
  let sess = Sess.create (Kp_util.Rng.make 6) in
  let bvec = Array.init 5 (fun _ -> F.random st) in
  let a' = M.random_nonsingular st 5 and b' = M.random_nonsingular st 5 in
  (match (Sess.solve ~key:"a" sess a' bvec, Sess.solve ~key:"b" sess b' bvec) with
  | Ok _, Ok _ -> ()
  | Error e, _ | _, Error e ->
    Alcotest.failf "keyed solves: %s" (Kp_robust.Outcome.error_to_string e));
  Alcotest.(check int) "two keys, two builds" 2 (Sess.stats sess).Sess.misses

(* a stale caller-supplied key (the key says "same matrix", the matrix
   changed) is caught by the live certificates like any poisoned entry *)
let test_stale_key () =
  let module F = Kp_field.Fields.Gf_ntt in
  let module C = Kp_poly.Conv.Karatsuba (F) in
  let module M = Kp_matrix.Dense.Make (F) in
  let module G = Kp_matrix.Gauss.Make (F) in
  let module Sess = Kp_session.Session.Make (F) (C) in
  let st = Kp_util.Rng.make 9 in
  let a1 = M.random_nonsingular st 5 in
  let a2 = M.random_nonsingular st 5 in
  let b = Array.init 5 (fun _ -> F.random st) in
  let sess = Sess.create (Kp_util.Rng.make 10) in
  (match Sess.solve ~key:"A" sess a1 b with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "build: %s" (Kp_robust.Outcome.error_to_string e));
  match Sess.solve ~key:"A" sess a2 b with
  | Ok (x, _) ->
    Alcotest.(check bool) "stale key: answer is for the live matrix" true
      (Array.for_all2 F.equal x (Option.get (G.solve a2 b)));
    Alcotest.(check bool) "stale key: entry evicted" true
      ((Sess.stats sess).Sess.evictions >= 1)
  | Error e -> Alcotest.failf "stale-key solve: %s" (Kp_robust.Outcome.error_to_string e)

(* a cached singular verdict is a kernel vector, and a keyed serve
   re-checks it against the live input: a key re-bound from a singular
   matrix to a nonsingular one (as kp serve re-registers an inline
   request's key) is a stale entry, evicted and rebuilt, never a
   "singular" answer or det = 0 for the new matrix *)
let test_stale_singular_key () =
  let module F = Kp_field.Fields.Gf_ntt in
  let module C = Kp_poly.Conv.Karatsuba (F) in
  let module M = Kp_matrix.Dense.Make (F) in
  let module G = Kp_matrix.Gauss.Make (F) in
  let module Sess = Kp_session.Session.Make (F) (C) in
  let module En = Kp_serve.Engines.Make (F) (C) in
  let st = Kp_util.Rng.make 7 in
  let sing = M.random_of_rank st 16 ~rank:14 in
  let a = M.random_nonsingular st 16 in
  let b = Array.init 16 (fun _ -> F.random st) in
  let fail what e =
    Alcotest.failf "%s: %s" what (Kp_robust.Outcome.error_to_string e)
  in
  let sess = Sess.create (Kp_util.Rng.make 8) in
  (match Sess.solve ~key:"k" sess sing b with
  | Error (O.Singular _) -> ()
  | Ok _ -> Alcotest.fail "solved a singular system"
  | Error e -> fail "singular build" e);
  (match Sess.solve ~key:"k" sess a b with
  | Ok (x, _) ->
    Alcotest.(check bool) "re-bound key: x for the live matrix" true
      (Array.for_all2 F.equal x (Option.get (G.solve a b)));
    Alcotest.(check bool) "re-bound key: entry evicted" true
      ((Sess.stats sess).Sess.evictions >= 1)
  | Error e -> fail "re-bound solve" e);
  (* the same through the engine ladder with a shared session, kp serve's
     configuration: the scalar rung answers the live det *)
  let sess = Sess.create (Kp_util.Rng.make 9) in
  let eng = En.create ~session:sess (Kp_util.Rng.make 10) in
  (match En.solve ~key:"k" ~engine:Kp_serve.Protocol.E_auto eng sing b with
  | Error (O.Singular _) -> ()
  | Ok _ -> Alcotest.fail "ladder solved a singular system"
  | Error e -> fail "ladder singular build" e);
  match En.det ~key:"k" ~engine:Kp_serve.Protocol.E_auto eng a with
  | Ok (d, rung, _) ->
    Alcotest.(check string) "scalar rung answered" "scalar" rung;
    Alcotest.(check bool) "re-bound key: det of the live matrix" true
      (F.equal d (G.det a))
  | Error e -> fail "re-bound det" e

module Gf97_suite =
  Suite
    (Kp_field.Fields.Gf_97)
    (struct
      let name = "gf97"
      let n = 5
      let singular_n = 5
    end)

module Ntt_suite =
  Suite
    (Kp_field.Fields.Gf_ntt)
    (struct
      let name = "gf_ntt"
      let n = 6
      let singular_n = 6
    end)

module Gf2_8_suite =
  Suite
    (Test_seeds.Gf2_8)
    (struct
      let name = "gf2^8"
      let n = 5
      let singular_n = 5
    end)

module Q_suite =
  Suite
    (Kp_field.Rational)
    (struct
      let name = "Q"
      let n = 4
      let singular_n = 4
    end)

let () =
  Alcotest.run "session"
    [
      ("gf97", Gf97_suite.tests);
      ("gf_ntt", Ntt_suite.tests);
      ("gf2^8", Gf2_8_suite.tests);
      ("rational", Q_suite.tests);
      ("fault_injection", FI.tests);
      ("cache_bound", LRU.tests);
      ("pool", Pooled.tests);
      ("cost", Cost.tests);
      ( "small_fields",
        [
          Alcotest.test_case "GF(2): oracle or typed error" `Quick Small_gf2.test;
          Alcotest.test_case "GF(3): oracle or typed error" `Quick Small_gf3.test;
          Alcotest.test_case "GF(7): oracle or typed error" `Quick Small_gf7.test;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "fingerprints and keys" `Quick test_fingerprint;
          Alcotest.test_case "stale caller key detected" `Quick test_stale_key;
          Alcotest.test_case "stale singular key re-checks A.w = 0" `Quick
            test_stale_singular_key;
        ] );
    ]
