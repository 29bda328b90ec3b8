(* Differential suite: the same question asked of every engine that can
   answer it must yield the identical answer — or the identical typed
   rejection.

   For each shared seed we build the same (seed-determined) input and run
   solve / det / inverse / rank / nullspace through

     - the black-box engine (preconditioned Wiedemann, [Kp_core.Wiedemann]),
     - the dense Theorem-4 engine ([Kp_core.Solver] / [Inverse] / [Rank] /
       [Nullspace]),
     - the Gaussian-elimination oracle ([Kp_matrix.Gauss]),

   over four fields: GF(97) (small prime — the clamped-sample-set regime),
   the NTT prime field, GF(2⁸) (characteristic 2 — the Chistov route), and
   Q (characteristic 0, exact rationals).  Answers to these questions are
   unique, so agreement must be exact ([F.equal], no tolerance); nullspaces
   are compared by dimension plus membership, the only well-defined
   comparison between bases. *)

(* seeds and field instantiations are shared across suites via Test_seeds *)
let shared_seeds = Test_seeds.shared_seeds

module type PROFILE = sig
  val name : string

  val sizes : int list
  (** Non-singular test sizes (kept small for the expensive fields). *)

  val singular_n : int
end

(* the engine ladder down to its last rung: one spent deadline opens the
   scalar breaker for good (its clock never moves), so every later
   question is elimination's *)
module Elimination
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module En = Kp_serve.Engines.Make (F) (C)

  let create ?precond st =
    let eng = En.create ~breaker_threshold:1 ~now:(fun () -> 0L) ?precond st in
    let id = En.M.identity 1 in
    ignore (En.det ~deadline_ns:0L ~engine:Kp_serve.Protocol.E_auto eng id);
    if List.assoc "scalar" (En.breaker_states eng) <> Kp_serve.Breaker.Open
    then Alcotest.fail "scalar breaker did not open";
    eng
end

module Diff (F : Kp_field.Field_intf.FIELD) (P : PROFILE) = struct
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Bb = Kp_matrix.Blackbox.Make (F)
  module S = Kp_core.Solver.Make (F) (C)
  module I = Kp_core.Inverse.Make (F) (C)
  module Rk = Kp_core.Rank.Make (F) (C)
  module Ns = Kp_core.Nullspace.Make (F) (C)
  module W = Kp_core.Wiedemann.Make (F)
  module BW = Kp_core.Block_wiedemann.Make (F)
  module Sp = Kp_matrix.Sparse.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)
  module El = Elimination (F) (C)
  module O = Kp_robust.Outcome

  let vec_equal = Array.for_all2 F.equal

  let ctx seed n what = Printf.sprintf "%s seed=%d n=%d: %s" P.name seed n what

  let fail_typed seed n what e =
    Alcotest.failf "%s" (ctx seed n (what ^ ": " ^ O.error_to_string e))

  let rank_of seed n what = function
    | Ok r -> r
    | Error e -> fail_typed seed n what e

  (* a singular verdict carries its proof: w ≠ 0 with A·w = 0 *)
  let singular_checked seed n what a = function
    | Error (O.Singular { kernel; _ }) ->
      Alcotest.(check bool) (ctx seed n (what ^ ": w <> 0")) true
        (Array.exists (fun x -> not (F.is_zero x)) kernel);
      Alcotest.(check bool) (ctx seed n (what ^ ": A·w = 0")) true
        (Array.for_all F.is_zero (M.matvec a kernel))
    | Ok _ -> Alcotest.failf "%s" (ctx seed n (what ^ " accepted a singular input"))
    | Error e -> fail_typed seed n (what ^ " (expected Singular)") e

  let states = Test_seeds.states

  let test_nonsingular () =
    List.iter
      (fun seed ->
        List.iter
          (fun n ->
            let st = Kp_util.Rng.make seed in
            let a = M.random_nonsingular st n in
            let x_true = Array.init n (fun _ -> F.random st) in
            let b = M.matvec a x_true in
            let sts = states (seed + n) 9 in
            (* solve — the unique solution, bit-identical on all engines *)
            (match G.solve a b with
            | Some x -> Alcotest.(check bool) (ctx seed n "gauss solve") true (vec_equal x x_true)
            | None -> Alcotest.failf "%s" (ctx seed n "gauss oracle called the matrix singular"));
            (match S.solve sts.(0) a b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n "dense solve = oracle") true (vec_equal x x_true)
            | Error e -> fail_typed seed n "dense solve" e);
            (match W.solve_preconditioned sts.(1) (Bb.of_dense a) b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n "blackbox solve = oracle") true (vec_equal x x_true)
            | Error e -> fail_typed seed n "blackbox solve" e);
            (* det *)
            let det_oracle = G.det a in
            (match S.det sts.(2) a with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n "dense det = oracle") true (F.equal d det_oracle)
            | Error e -> fail_typed seed n "dense det" e);
            (match W.det sts.(3) (Bb.of_dense a) with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n "blackbox det = oracle") true (F.equal d det_oracle)
            | Error e -> fail_typed seed n "blackbox det" e);
            (* inverse — both Theorem-6 routes against the oracle *)
            (match G.inverse a with
            | None -> Alcotest.failf "%s" (ctx seed n "gauss oracle failed to invert")
            | Some inv_oracle ->
              (match I.inverse sts.(4) a with
              | Ok (inv, _) ->
                Alcotest.(check bool) (ctx seed n "baur-strassen inverse = oracle") true
                  (M.equal inv inv_oracle)
              | Error e -> fail_typed seed n "baur-strassen inverse" e);
              (match I.inverse_via_solves sts.(5) a with
              | Ok (inv, _) ->
                Alcotest.(check bool) (ctx seed n "n-solves inverse = oracle") true
                  (M.equal inv inv_oracle)
              | Error e -> fail_typed seed n "n-solves inverse" e));
            (* session — the cached-prefix engine answers like the fresh
               ones, with exactly one build behind all three questions *)
            let sess = Sess.create sts.(8) in
            (match Sess.solve sess a b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n "session solve = oracle") true (vec_equal x x_true)
            | Error e -> fail_typed seed n "session solve" e);
            (match Sess.det sess a with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n "session det = oracle") true (F.equal d det_oracle)
            | Error e -> fail_typed seed n "session det" e);
            (match (Sess.inverse sess a, G.inverse a) with
            | Ok (inv, _), Some inv_oracle ->
              Alcotest.(check bool) (ctx seed n "session inverse = oracle") true
                (M.equal inv inv_oracle)
            | Error e, _ -> fail_typed seed n "session inverse" e
            | Ok _, None -> Alcotest.failf "%s" (ctx seed n "gauss oracle failed to invert"));
            let s = Sess.stats sess in
            Alcotest.(check bool) (ctx seed n "session: one build, no evictions") true
              (s.Sess.misses = 1 && s.Sess.hits = 2 && s.Sess.evictions = 0);
            (* rank *)
            Alcotest.(check int) (ctx seed n "rank = oracle") (G.rank a)
              (rank_of seed n "rank" (Rk.rank sts.(6) a));
            (* nullspace of a non-singular matrix is trivial *)
            (match Ns.nullspace sts.(7) a with
            | Ok [] -> ()
            | Ok basis ->
              Alcotest.failf "%s" (ctx seed n (Printf.sprintf
                   "nullspace returned %d vectors for a non-singular matrix"
                   (List.length basis)))
            | Error e -> fail_typed seed n "nullspace" e))
          P.sizes)
      shared_seeds

  let test_singular () =
    List.iter
      (fun seed ->
        let n = P.singular_n in
        let r = n - 2 in
        let st = Kp_util.Rng.make seed in
        let a = M.random_of_rank st n ~rank:r in
        let xs = Array.init n (fun _ -> F.random st) in
        let b = M.matvec a xs in
        (* a right-hand side outside the range, drawn as [kp solve --random
           n --rank-hint r] draws it *)
        let b_out = Array.init n (fun _ -> F.random st) in
        let sts = states (seed + n) 10 in
        Alcotest.(check bool) (ctx seed n "oracle sees singular") true (G.is_singular a);
        Alcotest.(check bool) (ctx seed n "oracle sees b_out outside the range") true
          (G.solve_general a b_out = None);
        (* solve: an inconsistent system's Krylov sequence reaches the
           kernel, so f has λ | f, and the dense and black-box engines
           answer Singular with a checked kernel vector *)
        singular_checked seed n "dense solve" a (S.solve sts.(0) a b_out);
        singular_checked seed n "blackbox solve" a
          (W.solve_preconditioned sts.(9) (Bb.of_dense a) b_out);
        singular_checked seed n "elimination solve" a
          (El.En.solve ~engine:Kp_serve.Protocol.E_auto
             (El.create (Kp_util.Rng.make seed)) a b_out);
        (* a consistent system's Krylov sequence misses the kernel, so no
           generator proves singularity: a typed error, never an answer *)
        (match S.solve sts.(8) a b with
        | Error (O.Singular _ | O.Retries_exhausted _) -> ()
        | Ok _ -> Alcotest.failf "%s" (ctx seed n "dense solve answered a singular system")
        | Error e -> fail_typed seed n "dense solve (expected a typed error)" e);
        (* det: zero everywhere, as an answer (a proof), not an error *)
        Alcotest.(check bool) (ctx seed n "oracle det = 0") true (F.is_zero (G.det a));
        (match S.det sts.(1) a with
        | Ok (d, _) -> Alcotest.(check bool) (ctx seed n "dense det = 0") true (F.is_zero d)
        | Error e -> fail_typed seed n "dense det" e);
        (match W.det sts.(2) (Bb.of_dense a) with
        | Ok (d, _) -> Alcotest.(check bool) (ctx seed n "blackbox det = 0") true (F.is_zero d)
        | Error e -> fail_typed seed n "blackbox det" e);
        (* inverse: common typed rejection *)
        (match G.inverse a with
        | Some _ -> Alcotest.failf "%s" (ctx seed n "gauss oracle inverted a singular matrix")
        | None -> ());
        singular_checked seed n "circuit inverse" a (I.inverse sts.(3) a);
        (* session: same typed outcomes as the fresh engines, from one
           cached singular verdict *)
        let sess = Sess.create sts.(7) in
        singular_checked seed n "session solve" a (Sess.solve sess a b);
        (match Sess.det sess a with
        | Ok (d, _) -> Alcotest.(check bool) (ctx seed n "session det = 0") true (F.is_zero d)
        | Error e -> fail_typed seed n "session det" e);
        singular_checked seed n "session inverse" a (Sess.inverse sess a);
        Alcotest.(check bool) (ctx seed n "session: singular verdict cached") true
          ((Sess.stats sess).Sess.misses = 1 && (Sess.stats sess).Sess.hits = 2);
        (* rank *)
        Alcotest.(check int) (ctx seed n "oracle rank = construction") r (G.rank a);
        Alcotest.(check int) (ctx seed n "rank = oracle") r
          (rank_of seed n "rank" (Rk.rank sts.(4) a));
        (* nullspace: same dimension as the oracle's, every vector a member *)
        (match Ns.nullspace sts.(5) a with
        | Ok basis ->
          Alcotest.(check int) (ctx seed n "nullspace dimension = oracle")
            (List.length (G.nullspace a))
            (List.length basis);
          List.iter
            (fun v ->
              Alcotest.(check bool) (ctx seed n "nullspace vector satisfies A·v = 0") true
                (Array.for_all F.is_zero (M.matvec a v)))
            basis
        | Error e -> fail_typed seed n "nullspace" e);
        (* singular solve: a solution of the consistent system, verified *)
        (match Ns.solve_singular sts.(6) a b with
        | Ok (Some x) ->
          Alcotest.(check bool) (ctx seed n "singular solve satisfies A·x = b") true
            (vec_equal (M.matvec a x) b)
        | Ok None ->
          Alcotest.failf "%s" (ctx seed n "singular solve called a consistent system inconsistent")
        | Error e -> fail_typed seed n "singular solve" e))
      shared_seeds

  (* --- block engine rows: same seed-determined inputs, every blocking
     factor must agree exactly with the oracle and the scalar engines --- *)

  let block_factors = [ 1; 2; 4 ]

  let same_rng st1 st2 =
    List.for_all (fun _ -> Random.State.bits st1 = Random.State.bits st2) [ 1; 2; 3 ]

  let test_block_nonsingular () =
    List.iter
      (fun seed ->
        List.iter
          (fun n ->
            let st = Kp_util.Rng.make seed in
            let a = M.random_nonsingular st n in
            let x_true = Array.init n (fun _ -> F.random st) in
            let b = M.matvec a x_true in
            let det_oracle = G.det a in
            List.iteri
              (fun i bf ->
                let sts = states (seed + n + (137 * (i + 1))) 2 in
                let what s = Printf.sprintf "%s b=%d" s bf in
                (match BW.solve ~block_factor:bf sts.(0) (Bb.of_dense a) b with
                | Ok (x, _) ->
                  Alcotest.(check bool) (ctx seed n (what "block solve = oracle")) true
                    (vec_equal x x_true)
                | Error e -> fail_typed seed n (what "block solve") e);
                match BW.det ~block_factor:bf sts.(1) (Bb.of_dense a) with
                | Ok (d, _) ->
                  Alcotest.(check bool) (ctx seed n (what "block det = oracle")) true
                    (F.equal d det_oracle)
                | Error e -> fail_typed seed n (what "block det") e)
              block_factors;
            (* a 2-RHS batch rides one block run *)
            let sts = states (seed + n + 997) 3 in
            let x2 = Array.init n (fun _ -> F.random sts.(2)) in
            let b2 = M.matvec a x2 in
            (match BW.solve_batch sts.(0) (Bb.of_dense a) [| b; b2 |] with
            | Ok (xs, _) ->
              Alcotest.(check bool) (ctx seed n "block batch solve = oracle") true
                (vec_equal xs.(0) x_true && vec_equal xs.(1) x2)
            | Error e -> fail_typed seed n "block batch solve" e);
            (* b=1 degeneration: on the same random stream the block engine
               draws P and u exactly as the black-box scalar engine does, so
               the answer, the attempt count and the stream afterwards agree *)
            let st_scalar = Kp_util.Rng.make ((seed * 65599) + n) in
            let st_block = Kp_util.Rng.make ((seed * 65599) + n) in
            match
              ( W.solve_preconditioned st_scalar (Bb.of_dense a) b,
                BW.solve ~block_factor:1 st_block (Bb.of_dense a) b )
            with
            | Ok (xs_, ra), Ok (xb_, rb) ->
              Alcotest.(check bool) (ctx seed n "b=1 block = scalar answer") true
                (vec_equal xs_ xb_);
              Alcotest.(check int) (ctx seed n "b=1 block = scalar attempts")
                ra.O.attempts rb.O.attempts;
              Alcotest.(check bool) (ctx seed n "b=1 block = scalar draws") true
                (same_rng st_scalar st_block)
            | Error e, _ -> fail_typed seed n "scalar solve (b=1 identity)" e
            | _, Error e -> fail_typed seed n "block solve (b=1 identity)" e)
          P.sizes)
      shared_seeds

  let test_block_singular () =
    List.iter
      (fun seed ->
        let n = P.singular_n in
        let r = n - 2 in
        let st = Kp_util.Rng.make seed in
        let a = M.random_of_rank st n ~rank:r in
        let xs = Array.init n (fun _ -> F.random st) in
        let b = M.matvec a xs in
        List.iter
          (fun bf ->
            let sts = states (seed + n + (211 * bf)) 2 in
            let what s = Printf.sprintf "%s b=%d" s bf in
            singular_checked seed n (what "block solve") a
              (BW.solve ~block_factor:bf sts.(0) (Bb.of_dense a) b);
            match BW.det ~block_factor:bf sts.(1) (Bb.of_dense a) with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n (what "block det = 0")) true
                (F.is_zero d)
            | Error e -> fail_typed seed n (what "block det") e)
          [ 1; 2 ])
      shared_seeds

  (* --- sparse block rows: the block engine on a CSR black box, never
     materialised, against the planted solutions and Gauss's det --- *)

  let test_block_sparse () =
    List.iter
      (fun seed ->
        List.iter
          (fun n ->
            let st = Kp_util.Rng.make (seed + 7919) in
            let s = Sp.random_nonsingular st n ~density:0.3 in
            let bb = Bb.of_sparse s in
            let x1 = Array.init n (fun _ -> F.random st) in
            let x2 = Array.init n (fun _ -> F.random st) in
            let b1 = Sp.matvec s x1 and b2 = Sp.matvec s x2 in
            let sts = states (seed + n + 4099) 3 in
            (match BW.solve ~block_factor:2 sts.(0) bb b1 with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n "sparse block solve = planted")
                true (vec_equal x x1)
            | Error e -> fail_typed seed n "sparse block solve" e);
            (match BW.solve_batch sts.(1) bb [| b1; b2 |] with
            | Ok (xs, _) ->
              Alcotest.(check bool) (ctx seed n "sparse block batch = planted")
                true
                (vec_equal xs.(0) x1 && vec_equal xs.(1) x2)
            | Error e -> fail_typed seed n "sparse block batch" e);
            match BW.det sts.(2) bb with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n "sparse block det = oracle") true
                (F.equal d (G.det (Sp.to_dense s)))
            | Error e -> fail_typed seed n "sparse block det" e)
          P.sizes)
      shared_seeds

  (* --- preconditioner-kind rows: every registered kind, through the
     scalar, block and black-box engines, must still reproduce the oracle
     exactly --- *)

  let test_precond_kinds () =
    let module Pc = Kp_precond.Precond in
    List.iter
      (fun seed ->
        let n = List.nth P.sizes (List.length P.sizes - 1) in
        let st = Kp_util.Rng.make seed in
        let a = M.random_nonsingular st n in
        let x_true = Array.init n (fun _ -> F.random st) in
        let b = M.matvec a x_true in
        let det_oracle = G.det a in
        List.iteri
          (fun i kind ->
            let precond = Pc.Forced kind in
            let sts = states (seed + n + (641 * (i + 1))) 6 in
            let what w = Printf.sprintf "%s precond=%s" w (Pc.kind_name kind) in
            (match S.solve ~precond sts.(0) a b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n (what "solve = oracle")) true
                (vec_equal x x_true)
            | Error e -> fail_typed seed n (what "solve") e);
            (match S.det ~precond sts.(1) a with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n (what "det = oracle")) true
                (F.equal d det_oracle)
            | Error e -> fail_typed seed n (what "det") e);
            (match BW.solve ~block_factor:2 ~precond sts.(2) (Bb.of_dense a) b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n (what "block solve = oracle"))
                true (vec_equal x x_true)
            | Error e -> fail_typed seed n (what "block solve") e);
            (match BW.det ~block_factor:2 ~precond sts.(3) (Bb.of_dense a) with
            | Ok (d, _) ->
              Alcotest.(check bool) (ctx seed n (what "block det = oracle"))
                true (F.equal d det_oracle)
            | Error e -> fail_typed seed n (what "block det") e);
            match W.solve_preconditioned ~precond sts.(5) (Bb.of_dense a) b with
            | Ok (x, _) ->
              Alcotest.(check bool) (ctx seed n (what "blackbox solve = oracle"))
                true (vec_equal x x_true)
            | Error e -> fail_typed seed n (what "blackbox solve") e)
          Pc.all_kinds)
      shared_seeds

  (* --- route rows: the default generator and det(P) stages (Berlekamp–
     Massey, elimination) against the paper's route (Toeplitz charpoly,
     det(H) through the Toeplitz mirror).  Both draw from the same seed and
     neither replaced stage draws, so the answers, the whole attempt
     history and the RNG state afterwards must coincide --- *)

  let same_outcome eq r1 r2 =
    match (r1, r2) with
    | Ok (x, rep1), Ok (y, rep2) -> eq x y && rep1 = rep2
    | Error e1, Error e2 -> e1 = e2
    | _ -> false

  let route_identical ~key what eq run =
    let st_default = Kp_util.Rng.make key and st_reference = Kp_util.Rng.make key in
    let r_default = run None st_default in
    let r_reference = run (Some S.Toeplitz_charpoly) st_reference in
    Alcotest.(check bool) (what ^ ": same answer and attempt history") true
      (eq r_default r_reference);
    Alcotest.(check bool) (what ^ ": same RNG state afterwards") true
      (same_rng st_default st_reference)

  let test_route_identity () =
    List.iter
      (fun seed ->
        let st = Kp_util.Rng.make seed in
        let inputs =
          List.map (fun n -> M.random_nonsingular st n) P.sizes
          @ List.map
              (fun r -> M.random_of_rank st P.singular_n ~rank:r)
              [ P.singular_n - 1; P.singular_n - 2 ]
        in
        List.iteri
          (fun i a ->
            let n = a.M.rows in
            let b = M.matvec a (Array.init n (fun _ -> F.random st)) in
            let key = (1000 * seed) + i in
            let what op = ctx seed n (Printf.sprintf "%s (input %d)" op i) in
            route_identical ~key (what "solve") (same_outcome vec_equal)
              (fun route st -> S.solve ?route st a b);
            (* a tiny sample set: singular Hankels (linear complexity < n)
               and |S| escalation on most attempts *)
            route_identical ~key (what "solve card_s=4") (same_outcome vec_equal)
              (fun route st -> S.solve ~card_s:4 ?route st a b);
            route_identical ~key (what "det") (same_outcome F.equal)
              (fun route st -> S.det ?route st a);
            route_identical ~key (what "det card_s=4") (same_outcome F.equal)
              (fun route st -> S.det ~card_s:4 ?route st a);
            route_identical ~key (what "rank") ( = )
              (fun route st -> Rk.rank ?route st a))
          inputs)
      shared_seeds

  (* --- kept-basis rows: a black-box solve reads Cayley–Hamilton's
     Ãⁱ·b off the Krylov vectors it kept (k = n for a dense A) or applies
     Ã again (k = 0, the same box with an unknown cost).  The vectors are
     the same either way, so x, a singular verdict's w, the report and
     the RNG state afterwards must coincide --- *)

  let same_verdict r1 r2 =
    match (r1, r2) with
    | Ok (x, rep1), Ok (y, rep2) -> vec_equal x y && rep1 = rep2
    | ( Error (O.Singular { kernel = w1; report = rep1 }),
        Error (O.Singular { kernel = w2; report = rep2 }) ) ->
      vec_equal w1 w2 && rep1 = rep2
    | Error e1, Error e2 -> e1 = e2
    | _ -> false

  let kept_identical ~key what solve a b =
    let dense = Bb.of_dense a in
    let st_kept = Kp_util.Rng.make key and st_none = Kp_util.Rng.make key in
    let kept = solve st_kept dense b in
    let none = solve st_none { dense with Bb.ops_per_apply = 0 } b in
    Alcotest.(check bool) (what ^ ": same answer and report") true
      (same_verdict kept none);
    Alcotest.(check bool) (what ^ ": same RNG state afterwards") true
      (same_rng st_kept st_none);
    kept

  let test_kept_basis () =
    let solvers =
      [
        ("solve_preconditioned", fun st bb b -> W.solve_preconditioned st bb b);
        ("solve (P = I)", fun st bb b -> W.solve st bb b);
      ]
    in
    List.iter
      (fun seed ->
        let st = Kp_util.Rng.make seed in
        let nonsingular =
          List.map (fun n -> M.random_nonsingular st n) P.sizes
        in
        let singular =
          List.map
            (fun r -> M.random_of_rank st P.singular_n ~rank:r)
            [ P.singular_n - 1; P.singular_n - 2 ]
        in
        List.iteri
          (fun i a ->
            let n = a.M.rows in
            let is_singular = i >= List.length nonsingular in
            let in_range = M.matvec a (Array.init n (fun _ -> F.random st)) in
            let drawn = Array.init n (fun _ -> F.random st) in
            List.iter
              (fun (name, solve) ->
                List.iteri
                  (fun j (rhs, b) ->
                    let what =
                      ctx seed n (Printf.sprintf "%s, %s (input %d)" name rhs i)
                    in
                    let key = (1000 * seed) + (10 * i) + j in
                    (* an answer solves; a b outside a singular A's range
                       gets Singular with a checked w read off the kept
                       basis, and a b inside it an answer or a typed error *)
                    let outside = is_singular && G.solve_general a b = None in
                    match kept_identical ~key what solve a b with
                    | Ok (x, _) ->
                      Alcotest.(check bool) (what ^ ": A·x = b") true
                        (vec_equal (M.matvec a x) b)
                    | Error (O.Singular _) as r when is_singular ->
                      singular_checked seed n what a r
                    | Error _ when is_singular && not outside -> ()
                    | Error e -> fail_typed seed n what e)
                  [ ("b = A·x", in_range); ("drawn b", drawn) ])
              solvers)
          (nonsingular @ singular))
      shared_seeds

  let tests =
    [
      Alcotest.test_case (P.name ^ " nonsingular") `Quick test_nonsingular;
      Alcotest.test_case (P.name ^ " singular") `Quick test_singular;
      Alcotest.test_case (P.name ^ " block nonsingular") `Quick test_block_nonsingular;
      Alcotest.test_case (P.name ^ " block singular") `Quick test_block_singular;
      Alcotest.test_case (P.name ^ " block sparse") `Quick test_block_sparse;
      Alcotest.test_case (P.name ^ " precond kinds") `Quick test_precond_kinds;
      Alcotest.test_case (P.name ^ " route identity") `Quick test_route_identity;
      Alcotest.test_case (P.name ^ " kept Krylov basis") `Quick test_kept_basis;
    ]
end

module Gf97_suite =
  Diff
    (Kp_field.Fields.Gf_97)
    (struct
      let name = "gf97"
      let sizes = [ 3; 5 ]
      let singular_n = 5
    end)

module Ntt_suite =
  Diff
    (Kp_field.Fields.Gf_ntt)
    (struct
      let name = "gf_ntt"
      let sizes = [ 3; 6 ]
      let singular_n = 6
    end)

module Gf2_8 = Test_seeds.Gf2_8

module Gf2_8_suite =
  Diff
    (Gf2_8)
    (struct
      let name = "gf2^8"
      let sizes = [ 3; 5 ]
      let singular_n = 5
    end)

module Q_suite =
  Diff
    (Kp_field.Rational)
    (struct
      let name = "Q"
      let sizes = [ 3; 4 ]
      let singular_n = 4
    end)

(* --- kernel twin rows: the same engine battery run on a hinted field (C-stub
   kernel) and on its Generic twin (derived kernel) must produce
   bit-identical answers AND identical attempt counts — the end-to-end form
   of the kernel suite's bit-identity contract. --- *)
module Twin_rows = struct
  module O = Kp_robust.Outcome
  module Twin = Test_seeds.Generic_twin

  (* GF(p): the full Theorem-4 battery — solve/det with attempt counts,
     rank, a session run, and the Gauss oracle.  Every component is a
     plain int or int array, so the two runs compare with structural
     equality. *)
  module Gfp_battery (F : Kp_field.Field_intf.FIELD with type t = int) = struct
    module C = Kp_poly.Conv.Karatsuba (F)
    module M = Kp_matrix.Dense.Make (F)
    module G = Kp_matrix.Gauss.Make (F)
    module S = Kp_core.Solver.Make (F) (C)
    module Rk = Kp_core.Rank.Make (F) (C)
    module Sess = Kp_session.Session.Make (F) (C)

    let run seed n =
      let fail what e =
        Alcotest.failf "gfp battery %s seed=%d n=%d: %s" what seed n
          (O.error_to_string e)
      in
      let st = Kp_util.Rng.make seed in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec a x_true in
      let sts = Test_seeds.states (seed + n) 4 in
      let solve_x, solve_att =
        match S.solve sts.(0) a b with
        | Ok (x, r) -> (x, r.O.attempts)
        | Error e -> fail "solve" e
      in
      let det, det_att =
        match S.det sts.(1) a with
        | Ok (d, r) -> (d, r.O.attempts)
        | Error e -> fail "det" e
      in
      let rank =
        match Rk.rank sts.(2) a with Ok r -> r | Error e -> fail "rank" e
      in
      let sess = Sess.create sts.(3) in
      let sess_x =
        match Sess.solve sess a b with
        | Ok (x, _) -> x
        | Error e -> fail "session solve" e
      in
      let sess_d =
        match Sess.det sess a with
        | Ok (d, _) -> d
        | Error e -> fail "session det" e
      in
      let gauss_x =
        match G.solve a b with
        | Some x -> x
        | None -> Alcotest.failf "gfp battery: oracle called input singular"
      in
      (solve_x, solve_att, det, det_att, rank, sess_x, sess_d, gauss_x)
  end

  (* GF(2), in both representations: [Fields.Gf2] (gf2_cstub) and
     [Gfp.make 2] (gfp_cstub at p = 2, the runtime field of
     [kp --prime 2]).  [matrix_layer] pins the kernel-backed products and
     the deterministic Gauss solve/det/rank; [solve] is the black-box path
     [kp solve --prime 2] takes — [Wiedemann.solve_preconditioned] with the
     default preconditioner — as its answer and attempt count, or its typed
     error (seed 92 at n = 64 needs a second attempt, so the attempt count
     is not trivially 1). *)
  module Gf2_battery (F : Kp_field.Field_intf.FIELD with type t = int) = struct
    module M = Kp_matrix.Dense.Make (F)
    module Sp = Kp_matrix.Sparse.Make (F)
    module G = Kp_matrix.Gauss.Make (F)
    module Bb = Kp_matrix.Blackbox.Make (F)
    module W = Kp_core.Wiedemann.Make (F)

    let matrix_layer seed n =
      let st = Kp_util.Rng.make seed in
      let a = M.random st n n in
      let b = M.random st n n in
      let v = Array.init n (fun _ -> F.random st) in
      let sp = Sp.random st n n ~density:0.3 in
      let mul = (M.mul a b).M.data in
      let mv = M.matvec a v in
      let spmv = Sp.matvec sp v in
      let det = G.det a in
      let rank = G.rank a in
      let solve = G.solve a (M.matvec a v) in
      (mul, mv, spmv, det, rank, solve)

    let solve seed n =
      let st = Kp_util.Rng.make seed in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec a x_true in
      let outcome =
        match
          W.solve_preconditioned (Kp_util.Rng.make (seed + n)) (Bb.of_dense a) b
        with
        | Ok (x, r) -> Ok (x, r.O.attempts)
        | Error e -> Error (O.error_to_string e)
      in
      (outcome, x_true)
  end

  module Ntt = Gfp_battery (Kp_field.Fields.Gf_ntt)
  module Ntt_twin = Gfp_battery (Twin (Kp_field.Fields.Gf_ntt))
  module Gf2 = Gf2_battery (Kp_field.Gf2)
  module Gf2_twin = Gf2_battery (Twin (Kp_field.Gf2))

  module P2 =
    (val Kp_field.Gfp.make 2 : Kp_field.Field_intf.FIELD with type t = int)

  module Gfp2 = Gf2_battery (P2)
  module Gfp2_twin = Gf2_battery (Twin (P2))

  let test_gfp () =
    List.iter
      (fun seed ->
        List.iter
          (fun n ->
            let sx, sa, d, da, rk, zx, zd, gx = Ntt.run seed n in
            let sx', sa', d', da', rk', zx', zd', gx' = Ntt_twin.run seed n in
            let lbl what =
              Printf.sprintf "gfp %s: cstub = Generic twin (seed=%d n=%d)" what
                seed n
            in
            Alcotest.(check bool) (lbl "solve answer") true (sx = sx');
            Alcotest.(check int) (lbl "solve attempts") sa sa';
            Alcotest.(check int) (lbl "det") d d';
            Alcotest.(check int) (lbl "det attempts") da da';
            Alcotest.(check int) (lbl "rank") rk rk';
            Alcotest.(check bool) (lbl "session solve") true (zx = zx');
            Alcotest.(check int) (lbl "session det") zd zd';
            Alcotest.(check bool) (lbl "gauss solve") true (gx = gx'))
          [ 4; 9 ])
      shared_seeds

  let test_gf2_matrix_layer () =
    List.iter
      (fun (name, field, twin) ->
        List.iter
          (fun seed ->
            List.iter
              (fun n ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s = Generic twin (seed=%d n=%d)" name seed n)
                  true
                  (field seed n = twin seed n))
              [ 7; 64; 100 ])
          shared_seeds)
      [
        ("Fields.Gf2", Gf2.matrix_layer, Gf2_twin.matrix_layer);
        ("Gfp.make 2", Gfp2.matrix_layer, Gfp2_twin.matrix_layer);
      ]

  let test_gf2_solve () =
    List.iter
      (fun (name, field, twin) ->
        List.iter
          (fun seed ->
            List.iter
              (fun n ->
                let lbl what =
                  Printf.sprintf "%s solve %s (seed=%d n=%d)" name what seed n
                in
                let outcome, x_true = field seed n in
                (match outcome with
                | Ok (x, _) ->
                  Alcotest.(check bool) (lbl "is the planted solution") true
                    (x = x_true)
                | Error e -> Alcotest.failf "%s" (lbl e));
                Alcotest.(check bool)
                  (lbl "answer and attempts = Generic twin")
                  true
                  (outcome = fst (twin seed n)))
              [ 16; 64 ])
          shared_seeds)
      [
        ("Gfp.make 2", Gfp2.solve, Gfp2_twin.solve);
        ("Fields.Gf2", Gf2.solve, Gf2_twin.solve);
      ]

  let tests =
    [
      Alcotest.test_case "gfp engines: cstub = twin" `Quick test_gfp;
      Alcotest.test_case "gf2 matrix layer: cstub = twin" `Quick
        test_gf2_matrix_layer;
      Alcotest.test_case "gf2 solve: cstub = twin" `Quick test_gf2_solve;
    ]
end

(* --- GF(2) track: the extension-field preconditioner ------------------- *)
(* GF(2) sits outside the Theorem-4 probability regime (card(S) = 2 — the
   success bound 1 - 3n²/|S| is vacuous), so these rows are small-n and
   seed-pinned with a generous retry budget.  The contract is Las Vegas:
   every accepted answer must equal the oracle's, and the ext kind's
   escalation ceiling (2^8 instead of 2) must let at least some pinned
   seeds converge at all. *)
module Gf2_track = struct
  module F = Kp_field.Fields.Gf2
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Bb = Kp_matrix.Blackbox.Make (F)
  module S = Kp_core.Solver.Make (F) (C)
  module W = Kp_core.Wiedemann.Make (F)
  module O = Kp_robust.Outcome
  module Pc = Kp_precond.Precond

  let pinned_seeds = [ 2; 3; 5; 7; 11; 13; 17; 19 ]
  let n = 4

  let run_kind kind =
    let solved = ref 0 and wrong = ref 0 and bb_solved = ref 0 in
    List.iter
      (fun seed ->
        let st = Kp_util.Rng.make (9000 + seed) in
        let a = M.random_nonsingular st n in
        let x_true = Array.init n (fun _ -> F.random st) in
        let b = M.matvec a x_true in
        (match
           S.solve ~retries:40 ~precond:(Pc.Forced kind)
             (Kp_util.Rng.make (77 * seed)) a b
         with
        | Ok (x, _) ->
          incr solved;
          if not (Array.for_all2 F.equal x x_true) then incr wrong
        | Error _ -> ());
        match
          W.solve_preconditioned ~retries:40 ~precond:(Pc.Forced kind)
            (Kp_util.Rng.make (177 * seed))
            (Bb.of_dense a) b
        with
        | Ok (x, _) ->
          incr bb_solved;
          if not (Array.for_all2 F.equal x x_true) then incr wrong
        | Error _ -> ())
      pinned_seeds;
    (!solved, !bb_solved, !wrong)

  let test_ext () =
    let solved, bb_solved, wrong = run_kind Pc.Ext_field in
    Alcotest.(check int) "gf2 ext: no accepted answer is ever wrong" 0 wrong;
    Alcotest.(check bool)
      (Printf.sprintf "gf2 ext: some pinned seeds converge (%d+%d)" solved
         bb_solved)
      true
      (solved >= 1 && bb_solved >= 1)

  let test_sparse_las_vegas () =
    (* the butterfly over GF(2) itself rarely converges — but when it
       accepts, the answer is right *)
    let _, _, wrong = run_kind Pc.Sparse_butterfly in
    Alcotest.(check int) "gf2 sparse: no accepted answer is ever wrong" 0 wrong

  let tests =
    [
      Alcotest.test_case "gf2 ext-field preconditioner" `Quick test_ext;
      Alcotest.test_case "gf2 sparse: Las Vegas only" `Quick
        test_sparse_las_vegas;
    ]
end

(* --- small-field track: GF(2), GF(3), GF(7) -------------------------- *)
(* Built by [Gfp.make], as [kp --prime p] builds them.  card(K) is far
   below 3n², so nonsingular inputs routinely give generators of degree
   below n; only a checked kernel vector may end a run as Singular.
   Every dense and block solve and det of a nonsingular input must
   therefore return Gauss's answer or a typed error other than Singular
   — never Singular, never det = 0.  Each runs at the default budget and
   at a one-attempt budget, where the first attempt's verdict is the
   answer: the block engine's widening blocks rescue most bad first
   attempts at the default budget, so only the short budget exposes a
   block rule that reads a low degree as singular. *)
module Small_field_track = struct
  module O = Kp_robust.Outcome

  module Track (F : Kp_field.Field_intf.FIELD) = struct
    module C = Kp_poly.Conv.Karatsuba (F)
    module M = Kp_matrix.Dense.Make (F)
    module G = Kp_matrix.Gauss.Make (F)
    module S = Kp_core.Solver.Make (F) (C)
    module BW = Kp_core.Block_wiedemann.Make (F)

    let test () =
      List.iter
        (fun n ->
          List.iter
            (fun seed ->
              let st = Kp_util.Rng.make ((1000 * n) + seed) in
              let a = M.random_nonsingular st n in
              let b = Array.init n (fun _ -> F.random st) in
              let x_ref = Option.get (G.solve a b) and det_ref = G.det a in
              let sts = Test_seeds.states ((1000 * n) + seed) 8 in
              let wrong what fmt =
                Printf.ksprintf
                  (fun m ->
                    Alcotest.failf "%s n=%d seed=%d %s: %s" F.name n seed what m)
                  fmt
              in
              let solve what = function
                | Ok (x, _) ->
                  if not (Array.for_all2 F.equal x x_ref) then
                    wrong what "differs from Gauss"
                | Error (O.Singular _) -> wrong what "Singular for a nonsingular matrix"
                | Error _ -> ()
              in
              let det what = function
                | Ok (d, _) ->
                  if not (F.equal d det_ref) then
                    wrong what "det = %s, Gauss says %s" (F.to_string d)
                      (F.to_string det_ref)
                | Error (O.Singular _) -> wrong what "Singular, not a det"
                | Error _ -> ()
              in
              List.iteri
                (fun i retries ->
                  let sts = Array.sub sts (4 * i) 4 in
                  let what w =
                    match retries with
                    | Some r -> Printf.sprintf "%s (retries %d)" w r
                    | None -> w
                  in
                  solve (what "dense solve") (S.solve ?retries sts.(0) a b);
                  det (what "dense det") (S.det ?retries sts.(1) a);
                  solve (what "block solve")
                    (BW.solve ?retries sts.(2) (BW.Bb.of_dense a) b);
                  det (what "block det")
                    (BW.det ?retries sts.(3) (BW.Bb.of_dense a)))
                [ None; Some 1 ])
            [ 1; 2; 3; 4; 5; 6 ])
        [ 8; 24 ]
  end

  module F2 = (val Kp_field.Gfp.make 2)
  module F3 = (val Kp_field.Gfp.make 3)
  module F7 = (val Kp_field.Gfp.make 7)
  module Gf2 = Track (F2)
  module Gf3 = Track (F3)
  module Gf7 = Track (F7)

  let tests =
    [
      Alcotest.test_case "GF(2): Gauss or a typed error" `Quick Gf2.test;
      Alcotest.test_case "GF(3): Gauss or a typed error" `Quick Gf3.test;
      Alcotest.test_case "GF(7): Gauss or a typed error" `Quick Gf7.test;
    ]
end

(* --- exhaustive small cases: every 2×2 and 3×3 over GF(2), every 2×2
   over GF(3) --------------------------------------------------------- *)
(* Each input asks solve (b = all ones), det and rank of every engine —
   dense (Theorem 4, and §5 Nullspace's proved rank), scalar (the black
   box), block at b ∈ {1, 2}, and the ladder, whose last rung is
   elimination — under every preconditioner kind.  Every [Ok] equals
   Gauss (a solve of a singular input satisfies A·x = b of a consistent
   system), every [Singular] carries w ≠ 0 with A·w = 0, and a
   nonsingular input never gets [Singular]. *)
module Exhaustive = struct
  module O = Kp_robust.Outcome
  module Pc = Kp_precond.Precond

  module Run (F : Kp_field.Field_intf.FIELD) = struct
    module C = Kp_poly.Conv.Karatsuba (F)
    module M = Kp_matrix.Dense.Make (F)
    module G = Kp_matrix.Gauss.Make (F)
    module S = Kp_core.Solver.Make (F) (C)
    module W = Kp_core.Wiedemann.Make (F)
    module BW = Kp_core.Block_wiedemann.Make (F)
    module Ns = Kp_core.Nullspace.Make (F) (C)
    module El = Elimination (F) (C)
    module En = El.En

    (* matrix [idx] of the q^(n²): entry k (row-major) is base-q digit k *)
    let matrix ~q n idx =
      let digits = Array.make (n * n) 0 and r = ref idx in
      for k = 0 to (n * n) - 1 do
        digits.(k) <- !r mod q;
        r := !r / q
      done;
      M.init n n (fun i j -> F.of_int digits.((i * n) + j))

    let test n () =
      let q = Option.get F.cardinality in
      let count = int_of_float (float_of_int q ** float_of_int (n * n)) in
      let proofs = ref 0 in
      for idx = 0 to count - 1 do
        let a = matrix ~q n idx in
        let b = Array.make n F.one in
        let rank = G.rank a and det_ref = G.det a in
        let x_ref = G.solve_general a b in
        let fail what fmt =
          Printf.ksprintf
            (fun m -> Alcotest.failf "%s %dx%d #%d %s: %s" F.name n n idx what m)
            fmt
        in
        let error what = function
          | O.Singular { kernel; _ } ->
            incr proofs;
            if rank = n then fail what "Singular for a nonsingular matrix";
            if
              Array.for_all F.is_zero kernel
              || not (Array.for_all F.is_zero (M.matvec a kernel))
            then fail what "kernel vector fails w <> 0, A.w = 0"
          | _ -> ()
        in
        let solve what = function
          | Ok x -> (
            match x_ref with
            | Some x_ref when rank = n ->
              if not (Array.for_all2 F.equal x x_ref) then
                fail what "differs from Gauss"
            | Some _ ->
              if not (Array.for_all2 F.equal (M.matvec a x) b) then
                fail what "A.x <> b"
            | None -> fail what "solved an inconsistent system")
          | Error e -> error what e
        in
        let det what = function
          | Ok d ->
            if not (F.equal d det_ref) then
              fail what "det = %s, Gauss says %s" (F.to_string d)
                (F.to_string det_ref)
          | Error e -> error what e
        in
        let rank_is what = function
          | Ok r -> if r <> rank then fail what "rank %d, Gauss says %d" r rank
          | Error e -> error what e
        in
        let st = Kp_util.Rng.make (idx + 1) in
        List.iter
          (fun kind ->
            let precond = Pc.Forced kind in
            let fst2 r = Result.map fst r in
            solve "dense solve" (fst2 (S.solve ~precond st a b));
            det "dense det" (fst2 (S.det ~precond st a));
            rank_is "dense rank"
              (Result.map (fun w -> n - List.length w)
                 (Ns.nullspace ~precond st a));
            solve "scalar solve"
              (fst2 (W.solve_preconditioned ~precond st (W.Bb.of_dense a) b));
            det "scalar det" (fst2 (W.det ~precond st (W.Bb.of_dense a)));
            List.iter
              (fun block_factor ->
                solve "block solve"
                  (fst2
                     (BW.solve ~block_factor ~precond st (W.Bb.of_dense a) b));
                det "block det"
                  (fst2 (BW.det ~block_factor ~precond st (W.Bb.of_dense a))))
              [ 1; 2 ];
            List.iter
              (fun (what, eng) ->
                let engine = Kp_serve.Protocol.E_auto in
                let drop (v, _, _) = v in
                solve (what ^ " solve")
                  (Result.map drop (En.solve ~engine eng a b));
                det (what ^ " det") (Result.map drop (En.det ~engine eng a));
                rank_is (what ^ " rank") (Result.map fst (En.rank ~engine eng a));
                match En.inverse ~engine eng a with
                | Ok (inv, _, _) ->
                  if not (M.equal (M.mul a inv) (M.identity n)) then
                    fail (what ^ " inverse") "A * inv <> I"
                | Error e -> error (what ^ " inverse") e)
              [ ("ladder", En.create ~precond st);
                ("elimination", El.create ~precond st) ])
          Pc.all_kinds
      done;
      Alcotest.(check bool) "some Singular verdicts were checked" true
        (!proofs > 0)
  end

  module F2 = (val Kp_field.Gfp.make 2)
  module F3 = (val Kp_field.Gfp.make 3)
  module Gf2 = Run (F2)
  module Gf3 = Run (F3)

  let tests =
    [
      Alcotest.test_case "every 2x2 over GF(2)" `Quick (Gf2.test 2);
      Alcotest.test_case "every 3x3 over GF(2)" `Quick (Gf2.test 3);
      Alcotest.test_case "every 2x2 over GF(3)" `Quick (Gf3.test 2);
    ]
end

(* --- fuzz: "same matrix, many RHS" session plans --------------------- *)
(* A plan is a mixed sequence of solve/det/inverse questions against ONE
   matrix.  Executed through a session — whatever the order, whatever the
   interleaving — every answer must equal the oracle's: the cache must be
   invisible.  Plans are lists of small int codes, so qcheck's built-in
   list/int shrinking reports a minimal failing plan. *)
module Fuzz = struct
  module F = Kp_field.Fields.Gf_ntt
  module C = Kp_poly.Conv.Karatsuba (F)
  module M = Kp_matrix.Dense.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Sess = Kp_session.Session.Make (F) (C)

  let n = 4
  let k_rhs = 3

  (* codes 0..k_rhs-1: solve that RHS; k_rhs: det; k_rhs+1: inverse *)
  let run_plan seed plan =
    let st = Kp_util.Rng.make (1 + abs seed) in
    let a = M.random_nonsingular st n in
    let bs =
      Array.init k_rhs (fun _ -> Array.init n (fun _ -> F.random st))
    in
    let x_ref = Array.map (fun b -> Option.get (G.solve a b)) bs in
    let det_ref = G.det a in
    let inv_ref = Option.get (G.inverse a) in
    let sess = Sess.create (Kp_util.Rng.make (1000 + abs seed)) in
    List.for_all
      (fun code ->
        if code < k_rhs then
          match Sess.solve sess a bs.(code) with
          | Ok (x, _) -> Array.for_all2 F.equal x x_ref.(code)
          | Error _ -> false
        else if code = k_rhs then
          match Sess.det sess a with
          | Ok (d, _) -> F.equal d det_ref
          | Error _ -> false
        else
          match Sess.inverse sess a with
          | Ok (inv, _) -> M.equal inv inv_ref
          | Error _ -> false)
      plan
    && (Sess.stats sess).Sess.misses <= 1

  let test =
    QCheck.Test.make ~count:25
      ~name:"session plans: mixed solve/det/inverse orders, one cached build"
      QCheck.(
        pair small_int
          (list_of_size Gen.(1 -- 8)
             (int_bound (k_rhs + 1))))
      (fun (seed, plan) -> run_plan seed plan)
end

let () =
  Alcotest.run "differential"
    [
      ("gf97", Gf97_suite.tests);
      ("gf_ntt", Ntt_suite.tests);
      ("gf2^8", Gf2_8_suite.tests);
      ("rational", Q_suite.tests);
      ("kernel_twins", Twin_rows.tests);
      ("gf2_track", Gf2_track.tests);
      ("small_fields", Small_field_track.tests);
      ("exhaustive", Exhaustive.tests);
      ("session_fuzz", [ QCheck_alcotest.to_alcotest ~long:false Fuzz.test ]);
    ]
