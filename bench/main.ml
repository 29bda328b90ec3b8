(* Experiment harness: regenerates every "table" of the paper — its
   complexity and probability claims (the paper is a theory paper; each
   theorem/estimate becomes one experiment, per DESIGN.md §4).

     E1  Theorem 4   work O(n^ω log n): ops(solver)/ops(matmul) ~ log n
     E2  Theorem 4   depth O((log n)²) of the traced circuit
     E3  Estimate(2) failure probability ≤ 3n²/card(S)
     E4  Theorem 5/6 Baur–Strassen: |Q| ≤ 4|P|, depth(Q) = O(depth(P))
     E5  Theorem 3   Toeplitz charpoly size, multiplier-relative
     E6  §5 (12)     any-characteristic route costs a factor ~n
     E7  §4          transposed solve ≤ 4× solve
     E8  §5          rank / nullspace / singular solve / least squares
     E9  intro       wall-clock: practicality of the classical-multiplier
                     instantiation; sparse black-box crossover; multicore
     E13 §2          solve sessions: k solves of one matrix, fresh black-box
                     solves vs the cached b-independent prefix (generator
                     computed once); build, keyed and fresh solve at scale
     E14 kernel      bulk vector-kernel layer: the GF(p) C-stub kernel vs the
                     scalar abstract-field path, bit-identical by assertion
     E15 serve       kp serve under load: concurrent clients, typed overload
                     shedding at queue_limit 0, breaker demotion and
                     re-promotion under fault injection; every admitted
                     answer client-side re-verified (KP_SERVE_SOCKET aims
                     the load segment at an external daemon)
     E16 block       block Wiedemann vs the black-box scalar engine on the
                     same prepared Ã: b Krylov passes of σ ≈ 2n/b terms
                     and the matrix generator vs one 2n-term pass and
                     Berlekamp–Massey, answers asserted identical
     E18 cstub       C-stub kernels: dense matvec/matmul, butterfly apply
                     and CSR matvec over GF(p) and GF(2) through the C
                     stubs vs the derived reference kernel, outputs
                     asserted bit-identical
     E19 precond     preconditioner kinds on sparse GF(2) operators: field
                     ops per apply (counting field) of the dense H·D vs the
                     butterfly vs the GF(2^8) extension butterfly across a
                     density sweep — asserts the sparse kinds are cheaper
                     per apply and that the gap widens with n

   Every table runs the kernels users get: the dispatcher maps each
   field's kernel hint to its one fast backend.

   Usage:  dune exec bench/main.exe --
             [--table E1 ... | all] [--fast] [--json FILE]

   --json FILE captures the per-table STATS records (one-line JSON: label,
   wall-clock seconds, observability counters, span timings) into FILE as a
   kp-bench/1 run file; bench/compare.exe diffs two such files.  Unknown
   --table names (anything not listed above) are a usage error (exit 2).  *)

module F = Kp_field.Fields.Gf_ntt
module Cnt = Kp_field.Counting.Make (F)
module Counting = Kp_field.Counting
module Tables = Kp_util.Tables

(* concrete modules — conv multipliers dispatch on F.kernel_hint (the GF(p)
   C stubs for Gf_ntt); the counting instantiations below stay on the
   derived-kernel functors *)
module CK = Kp_poly.Conv.Karatsuba_field (F)
module NK = Kp_poly.Conv.Ntt_field (F) (Kp_poly.Conv.Default_ntt_prime)
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module Slv = Kp_core.Solver.Make (F) (CK)
module SlvN = Kp_core.Solver.Make (F) (NK)
module P = Kp_core.Pipeline.Make (F) (CK)
module Inv = Kp_core.Inverse.Make (F) (CK)
module Tr = Kp_core.Transpose.Make (F) (CK)
module Rk = Kp_core.Rank.Make (F) (CK)
module Ns = Kp_core.Nullspace.Make (F) (CK)
module TZ = Kp_structured.Toeplitz.Make (F) (CK)
module Sess = Kp_session.Session.Make (F) (CK)
module W = Kp_core.Wiedemann.Make (F)
module BW = Kp_core.Block_wiedemann.Make (F)
module Sp = Kp_matrix.Sparse.Make (F)

(* counting modules — both multipliers *)
module CCK = Kp_poly.Conv.Karatsuba (Cnt)
module NCK = Kp_poly.Conv.Ntt_generic (Cnt) (Kp_poly.Conv.Default_ntt_prime)
module CM = Kp_matrix.Dense.Make (Cnt)
module CG = Kp_matrix.Gauss.Make (Cnt)
module CP = Kp_core.Pipeline.Make (Cnt) (CCK)
module CPN = Kp_core.Pipeline.Make (Cnt) (NCK)
module CLev = Kp_structured.Leverrier.Make (Cnt)
module CTC = Kp_structured.Toeplitz_charpoly.Make (Cnt) (CCK)
module CTCN = Kp_structured.Toeplitz_charpoly.Make (Cnt) (NCK)
module CCh = Kp_structured.Chistov.Make (Cnt) (CCK)
module CChN = Kp_structured.Chistov.Make (Cnt) (NCK)

module Cc = Kp_circuit.Circuit
module AD = Kp_circuit.Autodiff

let fast = ref false
let st () = Kp_util.Rng.make 31337

(* monotonic wall-clock helpers straight off Kp_obs.Clock (the old
   Kp_util.Timing wrappers are retired) *)
let time f =
  let t0 = Kp_obs.Clock.now_s () in
  let x = f () in
  (x, Kp_obs.Clock.now_s () -. t0)

let best_of k f =
  assert (k >= 1);
  let x, t = time f in
  let best = ref t in
  for _ = 2 to k do
    let _, t = time f in
    if t < !best then best := t
  done;
  (x, !best)

(* expose the counting field's tallies to the observability exporter *)
let () = Cnt.register_gauges ~prefix:"field" ()

let log2 n = log (float_of_int n) /. log 2.

let measure_ops f =
  let _, c = Cnt.measure f in
  Counting.total c

(* ------------------------------------------------------------------ *)
(* E1: processor efficiency — ops(KP solve) vs ops(one matrix product)  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let st = st () in
  print_endline
    "E1 (Theorem 4): total work = [matrix-product part, O(n^3 log n) with \
     the classical multiplier]\n\
    \ + [Toeplitz/charpoly engine, O~(n^2), asymptotically negligible].\n\
     Claims: mm-part/matmul ~ c*log n; engine/(n^2 log n) ~ const;\n\
    \ Gauss/matmul ~ const (processor-optimal sequential);\n\
    \ Csanky/matmul ~ n (the 'factor of almost n' the paper eliminates).\n";
  let t =
    Tables.create ~title:"field operations, one solve attempt, NTT multiplier"
      ~columns:
        [ "n"; "matmul"; "KP total"; "KP mm-part"; "mm-part/mm"; "/(log 2n)";
          "engine"; "engine/(n^2 log n)"; "gauss/mm"; "csanky/mm/n" ]
  in
  let sizes = if !fast then [ 8; 16; 24; 32 ] else [ 8; 16; 24; 32; 48; 64 ] in
  List.iter
    (fun n ->
      let a = CM.random st n n and b0 = CM.random st n n in
      let mm = measure_ops (fun () -> ignore (CM.mul a b0)) in
      let rhs = Array.init n (fun _ -> Cnt.random st) in
      (* one KP attempt, split into the Krylov/matrix-product phase and the
         Toeplitz-engine phase *)
      let rec attempt k =
        if k > 5 then (0, 0)
        else begin
          let card_s = max (12 * n * n) 64 in
          let h = Array.init ((2 * n) - 1) (fun _ -> Cnt.sample st ~card_s) in
          let d = Array.init n (fun _ -> Cnt.sample st ~card_s) in
          let u = Array.init n (fun _ -> Cnt.sample st ~card_s) in
          match
            let mm_ops = ref 0 and cols = ref None and seq = ref [||] in
            mm_ops :=
              measure_ops (fun () ->
                  let p =
                    CPN.precond_of ~charpoly:CPN.charpoly_leverrier ~n ~h ~d
                  in
                  let a_tilde = CPN.preconditioned a p in
                  let c = CPN.K.columns ~mul:CPN.M.mul a_tilde rhs (2 * n) in
                  cols := Some c;
                  seq := CPN.K.sequence ~u c);
            let engine_ops =
              measure_ops (fun () ->
                  let f =
                    CPN.minimal_generator
                      ~generator:(CPN.Toeplitz CPN.charpoly_leverrier)
                      ~strategy:CPN.Sequential ~n !seq
                  in
                  ignore (CPN.det_hd ~charpoly:CPN.charpoly_leverrier ~n ~h ~d);
                  ignore f)
            in
            (!mm_ops, engine_ops)
          with
          | exception Division_by_zero -> attempt (k + 1)
          | pair -> pair
        end
      in
      let mm_part, engine = attempt 1 in
      let gauss = measure_ops (fun () -> ignore (CG.solve a rhs)) in
      let csanky =
        measure_ops (fun () ->
            let s = CLev.power_sums_of_dense ~mul:CM.mul a in
            ignore (CLev.newton_identities ~n s))
      in
      let fn = float_of_int in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int mm;
          Tables.fmt_int (mm_part + engine);
          Tables.fmt_int mm_part;
          Printf.sprintf "%.2f" (fn mm_part /. fn mm);
          Printf.sprintf "%.2f" (fn mm_part /. fn mm /. log2 (2 * n));
          Tables.fmt_int engine;
          Printf.sprintf "%.1f" (fn engine /. (fn (n * n) *. log2 n));
          Printf.sprintf "%.2f" (fn gauss /. fn mm);
          Printf.sprintf "%.2f" (fn csanky /. fn mm /. fn n);
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E2: parallel time — depth of the traced Theorem-4 circuit            *)
(* ------------------------------------------------------------------ *)

let gauss_det_circuit n =
  (* pivot-free elimination circuit: the classical O(n)-depth comparator *)
  let module B = Cc.Builder () in
  let m = Array.init n (fun _ -> Array.init n (fun _ -> B.fresh_input ())) in
  let det = ref B.one in
  for k = 0 to n - 1 do
    det := B.mul !det m.(k).(k);
    if k < n - 1 then begin
      let piv_inv = B.inv m.(k).(k) in
      for i = k + 1 to n - 1 do
        let factor = B.mul m.(i).(k) piv_inv in
        for j = k + 1 to n - 1 do
          m.(i).(j) <- B.sub m.(i).(j) (B.mul factor m.(k).(j))
        done
      done
    end
  done;
  B.finish ~outputs:[| !det |];
  B.circuit

let e2 () =
  let t =
    Tables.create
      ~title:
        "E2 (Theorem 4) circuit depth; claim: KP depth/(log n)^2 ~ const \
         while elimination depth ~ c*n"
      ~columns:
        [ "n"; "KP size"; "KP depth"; "depth/(log n)^2"; "gauss depth";
          "gauss depth/n" ]
  in
  let sizes = if !fast then [ 4; 8; 16 ] else [ 4; 8; 16; 24; 32 ] in
  List.iter
    (fun n ->
      let c = Inv.det_circuit ~n ~charpoly:`Leverrier in
      let s = Cc.stats c in
      let g = Cc.stats (gauss_det_circuit n) in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int s.Cc.size;
          string_of_int s.Cc.depth;
          Printf.sprintf "%.2f" (float_of_int s.Cc.depth /. (log2 n ** 2.));
          string_of_int g.Cc.depth;
          Printf.sprintf "%.2f" (float_of_int g.Cc.depth /. float_of_int n);
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E3: failure probability vs the 3n²/card(S) bound                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let st = st () in
  let t =
    Tables.create
      ~title:
        "E3 (estimate (2)) single-attempt failure rate on non-singular \
         inputs; claim: rate <= 3n^2/card(S)"
      ~columns:[ "n"; "card(S)"; "bound 3n^2/s"; "trials"; "failures"; "rate" ]
  in
  let trials = if !fast then 150 else 400 in
  let sizes = if !fast then [ 6 ] else [ 6; 10 ] in
  List.iter
    (fun n ->
      List.iter
        (fun mult ->
          let card_s = mult * 3 * n * n in
          let bound = 3. *. float_of_int (n * n) /. float_of_int card_s in
          let failures = ref 0 in
          for _ = 1 to trials do
            let a = M.random_nonsingular st n in
            let x_true = Array.init n (fun _ -> F.random st) in
            let b = M.matvec a x_true in
            let h = Array.init ((2 * n) - 1) (fun _ -> F.sample st ~card_s) in
            let d = Array.init n (fun _ -> F.sample st ~card_s) in
            let u = Array.init n (fun _ -> F.sample st ~card_s) in
            match
              let p = P.precond_of ~charpoly:P.charpoly_leverrier ~n ~h ~d in
              P.solve ~generator:(P.Toeplitz P.charpoly_leverrier)
                ~strategy:P.Sequential a ~b ~p ~u
            with
            | exception Division_by_zero -> incr failures
            | { P.x; _ } ->
              if not (Array.for_all2 F.equal x x_true) then incr failures
          done;
          Tables.add_row t
            [
              string_of_int n;
              string_of_int card_s;
              Printf.sprintf "%.4f" bound;
              string_of_int trials;
              string_of_int !failures;
              Printf.sprintf "%.4f" (float_of_int !failures /. float_of_int trials);
            ])
        [ 1; 4; 16; 64 ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E4: Baur–Strassen length and depth ratios                            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let t =
    Tables.create
      ~title:
        "E4 (Theorems 5/6) derivative circuit of the determinant circuit; \
         claim: size ratio <= 4, depth ratio O(1), divisions <= 2x; the \
         simplified columns apply DCE+CSE to both circuits first"
      ~columns:
        [ "n"; "|P|"; "|Q|"; "size ratio"; "simplified ratio"; "d(P)"; "d(Q)";
          "depth ratio"; "div P"; "div Q" ]
  in
  let sizes = if !fast then [ 4; 8 ] else [ 4; 8; 12; 16 ] in
  List.iter
    (fun n ->
      let p = Inv.det_circuit ~n ~charpoly:`Leverrier in
      let { AD.circuit = q; _ } = AD.differentiate p in
      let sp = Cc.stats p and sq = Cc.stats q in
      let sp' = Cc.stats (Kp_circuit.Optimize.simplify p) in
      let sq' = Cc.stats (Kp_circuit.Optimize.simplify q) in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int sp.Cc.size;
          Tables.fmt_int sq.Cc.size;
          Printf.sprintf "%.2f" (float_of_int sq.Cc.size /. float_of_int sp.Cc.size);
          Printf.sprintf "%.2f" (float_of_int sq'.Cc.size /. float_of_int sp'.Cc.size);
          string_of_int sp.Cc.depth;
          string_of_int sq.Cc.depth;
          Printf.sprintf "%.2f" (float_of_int sq.Cc.depth /. float_of_int sp.Cc.depth);
          string_of_int sp.Cc.divisions;
          string_of_int sq.Cc.divisions;
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E5: Toeplitz characteristic polynomial size (Theorem 3)              *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let st = st () in
  let t =
    Tables.create
      ~title:
        "E5 (Theorem 3) Toeplitz charpoly ops; claim: cost = O(#levels * \
         M(bivariate size)): with Karatsuba (M(m)=m^1.585) \
         ops/(n^2)^1.585 ~ const; with NTT (M(m)=m log m) \
         ops/(n^2 log n) ~ const — the paper's n^2*polylog"
      ~columns:
        [ "n"; "kar ops"; "kar/(n^2)^1.585"; "ntt ops"; "ntt/(n^2 log n)";
          "det agrees" ]
  in
  let sizes = if !fast then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128 ] in
  List.iter
    (fun n ->
      let d = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
      let dc = Array.map Cnt.of_int d in
      let ops_k = measure_ops (fun () -> ignore (CTC.charpoly ~n dc)) in
      let ops_n = measure_ops (fun () -> ignore (CTCN.charpoly ~n dc)) in
      let module TCF = Kp_structured.Toeplitz_charpoly.Make (F) (CK) in
      let agrees = F.equal (TCF.det ~n d) (G.det (TZ.to_dense ~n d)) in
      let nn = float_of_int (n * n) in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int ops_k;
          Printf.sprintf "%.1f" (float_of_int ops_k /. (nn ** 1.585));
          Tables.fmt_int ops_n;
          Printf.sprintf "%.1f" (float_of_int ops_n /. (nn *. log2 n));
          string_of_bool agrees;
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E6: small characteristic costs a factor ~n (bound (12) vs (7))       *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let st = st () in
  let t =
    Tables.create
      ~title:
        "E6 (§5, (12) vs (7)) Chistov (any characteristic) vs Leverrier \
         (char 0 / > n), NTT multiplier; claim: Chistov pays an extra factor \
         ~n — the ratio Chistov/Leverrier grows by ~2x per doubling of n \
         (exponent gap ~1); constants favour Chistov at small n"
      ~columns:
        [ "n"; "leverrier ops"; "chistov ops"; "chi/lev"; "ratio growth/doubling";
          "agree" ]
  in
  let sizes = if !fast then [ 8; 16; 32; 64 ] else [ 8; 16; 32; 64; 128 ] in
  let prev_ratio = ref nan in
  List.iter
    (fun n ->
      let d = Array.init ((2 * n) - 1) (fun _ -> F.random st) in
      let dc = Array.map Cnt.of_int d in
      let lev = measure_ops (fun () -> ignore (CTCN.charpoly ~n dc)) in
      let chi = measure_ops (fun () -> ignore (CChN.charpoly ~n dc)) in
      let cp_l = CTCN.charpoly ~n dc and cp_c = CChN.charpoly ~n dc in
      let agree = Array.for_all2 Cnt.equal cp_l cp_c in
      let ratio = float_of_int chi /. float_of_int lev in
      let growth =
        if Float.is_nan !prev_ratio then "-"
        else Printf.sprintf "%.2fx" (ratio /. !prev_ratio)
      in
      prev_ratio := ratio;
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int lev;
          Tables.fmt_int chi;
          Printf.sprintf "%.3f" ratio;
          growth;
          string_of_bool agree;
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E7: transposed systems at constant-factor cost (§4)                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let st = st () in
  let t =
    Tables.create
      ~title:
        "E7 (§4) transposed solve via Baur–Strassen of the solve circuit; \
         claim: size <= 4x, depth O(1)x, answers match the oracle"
      ~columns:[ "n"; "size ratio"; "depth ratio"; "matches Gauss" ]
  in
  let sizes = if !fast then [ 4; 6 ] else [ 4; 6; 8 ] in
  List.iter
    (fun n ->
      let r_size, r_depth = Tr.length_ratio ~n in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec (M.transpose a) x_true in
      let ok =
        match Tr.solve_transposed st a b with
        | Ok (x, _) -> Array.for_all2 F.equal x x_true
        | Error _ -> false
      in
      Tables.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.2f" r_size;
          Printf.sprintf "%.2f" r_depth;
          string_of_bool ok;
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E8: the §5 extensions against the elimination oracle                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let st = st () in
  let t =
    Tables.create
      ~title:"E8 (§5) randomized extensions vs Gaussian-elimination oracle"
      ~columns:[ "extension"; "trials"; "passed" ]
  in
  let trials = if !fast then 5 else 12 in
  (* rank *)
  let rank_ok = ref 0 in
  for _ = 1 to trials do
    let n = 3 + Random.State.int st 6 in
    let r = Random.State.int st (n + 1) in
    let a = M.random_of_rank st n ~rank:r in
    if Rk.rank st a = Ok (G.rank a) then incr rank_ok
  done;
  Tables.add_row t [ "rank"; string_of_int trials; string_of_int !rank_ok ];
  (* nullspace *)
  let ns_ok = ref 0 in
  for _ = 1 to trials do
    let n = 3 + Random.State.int st 5 in
    let r = 1 + Random.State.int st (n - 1) in
    let a = M.random_of_rank st n ~rank:r in
    match Ns.nullspace st a with
    | Ok basis
      when List.length basis = n - r
           && List.for_all
                (fun v -> Array.for_all F.is_zero (M.matvec a v))
                basis ->
      incr ns_ok
    | _ -> ()
  done;
  Tables.add_row t [ "nullspace"; string_of_int trials; string_of_int !ns_ok ];
  (* singular solve *)
  let ss_ok = ref 0 in
  for _ = 1 to trials do
    let n = 3 + Random.State.int st 5 in
    let r = 1 + Random.State.int st (n - 1) in
    let a = M.random_of_rank st n ~rank:r in
    let xs = Array.init n (fun _ -> F.random st) in
    let b = M.matvec a xs in
    match Ns.solve_singular st a b with
    | Ok (Some x) when Array.for_all2 F.equal (M.matvec a x) b -> incr ss_ok
    | _ -> ()
  done;
  Tables.add_row t
    [ "singular solve"; string_of_int trials; string_of_int !ss_ok ];
  (* least squares over Q *)
  let module Q = Kp_field.Rational in
  let module CQ = Kp_poly.Conv.Karatsuba (Q) in
  let module MQ = Kp_matrix.Dense.Make (Q) in
  let module GQ = Kp_matrix.Gauss.Make (Q) in
  let module Lsq = Kp_core.Least_squares.Make (Q) (CQ) in
  let ls_trials = max 3 (trials / 3) in
  let ls_ok = ref 0 in
  for k = 1 to ls_trials do
    let m = 5 and n = 3 in
    let a = MQ.init m n (fun i j -> Q.of_int ((((i + k) * (j + 2)) mod 7) + if i = j then 2 else 0)) in
    let b = Array.init m (fun i -> Q.of_int ((i * i) - (2 * k))) in
    match Lsq.solve st a b with
    | Ok x -> if Lsq.residual_orthogonal a x b then incr ls_ok
    | Error _ -> ()
  done;
  Tables.add_row t
    [ "least squares (Q)"; string_of_int ls_trials; string_of_int !ls_ok ];
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E9: wall clock (Bechamel)                                            *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if !fast then 0.25 else 0.75 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"e9" tests) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.sort (fun (a, _) (b, _) -> compare a b) !rows

let e9 () =
  let rng = st () in
  print_endline
    "E9 (practicality remark) wall-clock with the classical multiplier;\n\
     Bechamel OLS estimates, nanoseconds per run:\n";
  let open Bechamel in
  let n = if !fast then 48 else 64 in
  let a = M.random_nonsingular rng n in
  let x_true = Array.init n (fun _ -> F.random rng) in
  let b = M.matvec a x_true in
  let mm_b = M.random rng n n in
  let solver_rng = st () in
  let tests =
    [
      Test.make ~name:(Printf.sprintf "matmul n=%d" n)
        (Staged.stage (fun () -> ignore (M.mul a mm_b)));
      Test.make ~name:(Printf.sprintf "gauss_solve n=%d" n)
        (Staged.stage (fun () -> ignore (G.solve a b)));
      Test.make ~name:(Printf.sprintf "kp_solve_kar n=%d" n)
        (Staged.stage (fun () ->
             ignore (Slv.solve ~strategy:P.Sequential solver_rng a b)));
      Test.make ~name:(Printf.sprintf "kp_solve_ntt n=%d" n)
        (Staged.stage (fun () ->
             ignore
               (SlvN.solve ~strategy:SlvN.P.Sequential solver_rng a b)));
      Test.make ~name:(Printf.sprintf "kp_solve_ntt_dbl n=%d" n)
        (Staged.stage (fun () ->
             ignore (SlvN.solve ~strategy:SlvN.P.Doubling solver_rng a b)));
    ]
  in
  let t =
    Tables.create ~title:"sequential engines (one solve)"
      ~columns:[ "benchmark"; "time/run" ]
  in
  List.iter
    (fun (name, ns) ->
      Tables.add_row t
        [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ])
    (run_bechamel tests);
  Tables.print t;
  (* multicore: the PRAM stand-in *)
  let np = if !fast then 192 else 384 in
  let big1 = M.random rng np np and big2 = M.random rng np np in
  let cores = Domain.recommended_domain_count () in
  if cores = 1 then
    print_endline
      "note: this machine exposes a single CPU; domain-pool speedups cannot\n\
       exceed 1x here (the pool still runs, measuring its overhead).";
  let pools = List.filter (fun d -> d <= max 2 cores) [ 1; 2; 4; 8 ] in
  let t2 =
    Tables.create
      ~title:
        (Printf.sprintf
           "multicore matrix product (n = %d) over OCaml domains — the \
            PRAM in practice" np)
      ~columns:[ "domains"; "time/run"; "speedup" ]
  in
  let base = ref nan in
  List.iter
    (fun domains ->
      Kp_util.Pool.with_pool ~domains (fun pool ->
          let tests =
            [
              Test.make ~name:(Printf.sprintf "pmatmul d=%d" domains)
                (Staged.stage (fun () -> ignore (M.mul_parallel pool big1 big2)));
            ]
          in
          match run_bechamel tests with
          | [ (_, ns) ] ->
            if domains = 1 then base := ns;
            Tables.add_row t2
              [
                string_of_int domains;
                Printf.sprintf "%.1f ms" (ns /. 1e6);
                Printf.sprintf "%.2fx" (!base /. ns);
              ]
          | _ -> ()))
    pools;
  Tables.print t2

(* ------------------------------------------------------------------ *)
(* E10: ablation — the matrix-multiplication black box (ω)              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let st = st () in
  let t =
    Tables.create
      ~title:
        "E10 (ablation) the paper treats matrix multiplication as a black \
         box; swapping classical O(n^3) for Strassen O(n^2.81) changes the \
         Krylov phase proportionally — ops(strassen)/ops(classical) should \
         track (n/cutoff)^{2.81-3}"
      ~columns:
        [ "n"; "classical mm"; "strassen mm"; "mm ratio"; "KP krylov (cls)";
          "KP krylov (str)"; "krylov ratio" ]
  in
  let sizes = if !fast then [ 32; 64 ] else [ 32; 64; 128 ] in
  (* hybrid: Strassen on the square products (the repeated squarings),
     classical on the rectangular block extensions *)
  let strassen a b =
    if a.CM.rows = a.CM.cols && b.CM.rows = b.CM.cols && a.CM.rows = b.CM.rows
    then CM.mul_strassen ~cutoff:16 a b
    else CM.mul a b
  in
  List.iter
    (fun n ->
      let a = CM.random st n n and b0 = CM.random st n n in
      let mm_c = measure_ops (fun () -> ignore (CM.mul a b0)) in
      let mm_s = measure_ops (fun () -> ignore (strassen a b0)) in
      let v = Array.init n (fun _ -> Cnt.random st) in
      let kry mul =
        measure_ops (fun () -> ignore (CPN.K.columns ~mul a v (2 * n)))
      in
      let k_c = kry CM.mul and k_s = kry strassen in
      let fn = float_of_int in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int mm_c;
          Tables.fmt_int mm_s;
          Printf.sprintf "%.3f" (fn mm_s /. fn mm_c);
          Tables.fmt_int k_c;
          Tables.fmt_int k_s;
          Printf.sprintf "%.3f" (fn k_s /. fn k_c);
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E11: ablation — Krylov strategy (work vs depth trade)                *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let st = st () in
  print_endline
    "E11 (ablation) Krylov vectors by doubling (paper, display (9)) vs \
     sequentially:\n\
     doubling pays ~log n matrix products (more WORK) to win DEPTH \
     O((log n)^2) vs Θ(n).\n";
  let t =
    Tables.create ~title:"work (field ops, counting) and depth (traced circuit)"
      ~columns:
        [ "n"; "dbl work"; "seq work"; "work ratio"; "dbl depth"; "seq depth";
          "depth ratio" ]
  in
  let sizes = if !fast then [ 8; 16 ] else [ 8; 16; 32 ] in
  List.iter
    (fun n ->
      let a = CM.random st n n in
      let v = Array.init n (fun _ -> Cnt.random st) in
      let w_dbl =
        measure_ops (fun () -> ignore (CPN.K.columns ~mul:CM.mul a v (2 * n)))
      in
      let w_seq =
        measure_ops (fun () -> ignore (CPN.K.columns_sequential a v (2 * n)))
      in
      (* trace both into circuits for exact depth *)
      let depth_dbl, depth_seq =
        let trace_dbl () =
          let module B = Cc.Builder () in
          let module KB = Kp_core.Krylov.Make (B) in
          let a_in = KB.M.init n n (fun _ _ -> B.fresh_input ()) in
          let v_in = Array.init n (fun _ -> B.fresh_input ()) in
          let k = KB.columns ~mul:KB.M.mul a_in v_in (2 * n) in
          B.finish ~outputs:(Array.of_list (Array.to_list k.KB.M.data));
          (Cc.stats B.circuit).Cc.depth
        in
        let trace_seq () =
          let module B = Cc.Builder () in
          let module KB = Kp_core.Krylov.Make (B) in
          let a_in = KB.M.init n n (fun _ _ -> B.fresh_input ()) in
          let v_in = Array.init n (fun _ -> B.fresh_input ()) in
          let k = KB.columns_sequential a_in v_in (2 * n) in
          B.finish ~outputs:(Array.of_list (Array.to_list k.KB.M.data));
          (Cc.stats B.circuit).Cc.depth
        in
        (trace_dbl (), trace_seq ())
      in
      let fn = float_of_int in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_int w_dbl;
          Tables.fmt_int w_seq;
          Printf.sprintf "%.2f" (fn w_dbl /. fn w_seq);
          string_of_int depth_dbl;
          string_of_int depth_seq;
          Printf.sprintf "%.3f" (fn depth_dbl /. fn depth_seq);
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E12: ablation — bit-packed GF(2) kernel vs the abstract-field path    *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let rng = st () in
  let t =
    Tables.create
      ~title:
        "E12 (ablation) characteristic-2 workloads: word-packed XOR \
         elimination vs the generic abstract-field Gauss over GF(2) — the \
         constant-factor price of full abstraction"
      ~columns:[ "n"; "packed rank (s)"; "generic rank (s)"; "speedup"; "agree" ]
  in
  let module G2 = Kp_matrix.Gauss.Make (Kp_field.Gf2) in
  let module M2 = Kp_matrix.Dense.Make (Kp_field.Gf2) in
  let module B2 = Kp_matrix.Gf2_matrix in
  let sizes = if !fast then [ 128; 256 ] else [ 128; 256; 512; 1024 ] in
  List.iter
    (fun n ->
      let packed = B2.random rng ~rows:n ~cols:n in
      let generic =
        M2.init n n (fun i j -> if B2.get packed i j then 1 else 0)
      in
      let r1 = ref 0 and r2 = ref 0 in
      let _, t1 = best_of 3 (fun () -> r1 := B2.rank packed) in
      let _, t2 = best_of 3 (fun () -> r2 := G2.rank generic) in
      Tables.add_row t
        [
          string_of_int n;
          Tables.fmt_float t1;
          Tables.fmt_float t2;
          Printf.sprintf "%.1fx" (t2 /. t1);
          string_of_bool (!r1 = !r2);
        ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E13: solve sessions — k solves of one matrix, fresh vs cached prefix  *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let rng = st () in
  print_endline
    "E13 (sessions): k solves against ONE matrix.  Fresh is kp's default \
     engine, a black-box solve per RHS (a butterfly P, 2n - 1 applies of \
     A*P for the Krylov sequence of b, Berlekamp-Massey, then \
     Cayley-Hamilton read off the n Krylov vectors the pass kept, no \
     apply); a session computes the b-independent prefix (the prepared \
     A, P, the generator f and det P) once and serves each RHS with \
     n - 1 applies for Cayley-Hamilton.  'identical' checks the sessioned answers \
     equal the fresh ones; misses = 1 certifies exactly one prefix \
     computation.\n";
  let fresh_solve st a b =
    match W.solve_preconditioned st (W.Bb.of_dense a) b with
    | Ok (x, _) -> x
    | Error e -> failwith ("E13 fresh: " ^ Kp_robust.Outcome.error_to_string e)
  in
  let session_solve ?key sess a b =
    match Sess.solve ?key sess a b with
    | Ok (x, _) -> x
    | Error e ->
      failwith ("E13 session: " ^ Kp_robust.Outcome.error_to_string e)
  in
  let t =
    Tables.create ~title:"k certified solves of the same matrix, single runs"
      ~columns:
        [ "n"; "k"; "fresh (s)"; "session (s)"; "ratio"; "identical"; "hits";
          "misses" ]
  in
  let n = if !fast then 48 else 128 in
  let ks = [ 1; 4; 16 ] in
  let a = M.random_nonsingular rng n in
  List.iter
    (fun k ->
      let bs =
        Array.init k (fun _ -> Array.init n (fun _ -> F.random rng))
      in
      (* fresh: k independent certified solves, states pre-split as a batch
         caller would *)
      let st_fresh = Kp_util.Rng.make 7001 in
      let sts = Array.init k (fun _ -> Kp_util.Rng.split st_fresh) in
      let fresh, t_fresh =
        time (fun () -> Array.init k (fun i -> fresh_solve sts.(i) a bs.(i)))
      in
      (* sessioned: k separate solve calls through one session — the first
         misses and builds, the rest hit the cached record *)
      let sess = Sess.create (Kp_util.Rng.make 7001) in
      let sessioned, t_sess =
        time (fun () -> Array.init k (fun i -> session_solve sess a bs.(i)))
      in
      let s = Sess.stats sess in
      Tables.add_row t
        [
          string_of_int n;
          string_of_int k;
          Tables.fmt_float t_fresh;
          Tables.fmt_float t_sess;
          Printf.sprintf "%.2fx" (t_sess /. t_fresh);
          string_of_bool (Array.for_all2 (Array.for_all2 F.equal) fresh sessioned);
          string_of_int s.Sess.hits;
          string_of_int s.Sess.misses;
        ])
    ks;
  Tables.print t;
  if not !fast then begin
    (* at scale: the build is the first keyed solve less one keyed serve *)
    let t =
      Tables.create
        ~title:"one session at scale: build, keyed solve, fresh black-box solve"
        ~columns:
          [ "n"; "build (s)"; "keyed solve (s)"; "fresh solve (s)"; "identical" ]
    in
    List.iter
      (fun n ->
        let a = M.random_nonsingular rng n in
        let b1 = Array.init n (fun _ -> F.random rng) in
        let b2 = Array.init n (fun _ -> F.random rng) in
        let sess = Sess.create (Kp_util.Rng.make 7002) in
        let _, t_first = time (fun () -> session_solve ~key:"a" sess a b1) in
        let x, t_keyed = time (fun () -> session_solve ~key:"a" sess a b2) in
        let x_fresh, t_fresh =
          time (fun () -> fresh_solve (Kp_util.Rng.make 7003) a b2)
        in
        Tables.add_row t
          [
            string_of_int n;
            Tables.fmt_float (t_first -. t_keyed);
            Tables.fmt_float t_keyed;
            Tables.fmt_float t_fresh;
            string_of_bool (Array.for_all2 F.equal x x_fresh);
          ])
      [ 256; 512 ];
    Tables.print t
  end

(* ------------------------------------------------------------------ *)
(* E14: kernel layer — C-stub bulk loops vs scalar FIELD_CORE ops       *)
(* ------------------------------------------------------------------ *)

let e14 () =
  let rng = st () in
  print_endline
    "E14 (kernel layer): GF(p) dense matvec and Krylov doubling through the\n\
     gfp_cstub kernel (split 32-bit sums, one reduction per row)\n\
     vs the scalar balanced FIELD_CORE loops the kernel replaced.\n\
     Results are asserted bit-identical before timing; kernel.gfp_cstub\n\
     counter hits prove the fast path is actually taken.\n";
  let module MC = Kp_matrix.Dense.Core (F) in
  let module K = Kp_core.Krylov.Make (F) in
  let hits () =
    Option.value ~default:0 (Kp_obs.Counter.find "kernel.gfp_cstub")
  in
  let bench reps f =
    let (), t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    t
  in
  let t =
    Tables.create
      ~title:"kernel vs scalar on the same data, bit-identical (seconds)"
      ~columns:
        [ "n"; "mv reps"; "mv scalar"; "mv kernel"; "mv speedup"; "dbl reps";
          "dbl scalar"; "dbl kernel"; "dbl speedup"; "identical" ]
  in
  (* fixed repetition counts (not Bechamel) keep the kernel.* counters in
     this table deterministic, so the committed baseline can gate them *)
  let mv_reps = if !fast then 100 else 400 in
  let dbl_reps = if !fast then 1 else 2 in
  List.iter
    (fun n ->
      let a = M.random rng n n in
      let v = Array.init n (fun _ -> F.random rng) in
      (* bit-identity first, and prove the kernel path actually fires *)
      let mv_scalar = MC.matvec a v in
      let h0 = hits () in
      let mv_kernel = M.matvec a v in
      if hits () = h0 then
        failwith "E14: kernel.gfp_cstub did not tick on matvec";
      let p_scalar = K.doubling_powers ~mul:MC.mul a (2 * n) in
      let h1 = hits () in
      let p_kernel = K.doubling_powers ~mul:M.mul a (2 * n) in
      if hits () = h1 then
        failwith "E14: kernel.gfp_cstub did not tick on doubling";
      let identical =
        Array.for_all2 F.equal mv_scalar mv_kernel
        && Array.length p_scalar = Array.length p_kernel
        && Array.for_all2
             (fun (x : MC.t) (y : MC.t) ->
               Array.for_all2 F.equal x.MC.data y.MC.data)
             p_scalar p_kernel
      in
      if not identical then failwith "E14: kernel and scalar results differ";
      let t_mv_s = bench mv_reps (fun () -> MC.matvec a v) in
      let t_mv_k = bench mv_reps (fun () -> M.matvec a v) in
      let t_dbl_s =
        bench dbl_reps (fun () -> K.doubling_powers ~mul:MC.mul a (2 * n))
      in
      let t_dbl_k =
        bench dbl_reps (fun () -> K.doubling_powers ~mul:M.mul a (2 * n))
      in
      Tables.add_row t
        [
          string_of_int n;
          string_of_int mv_reps;
          Tables.fmt_float t_mv_s;
          Tables.fmt_float t_mv_k;
          Printf.sprintf "%.1fx" (t_mv_s /. t_mv_k);
          string_of_int dbl_reps;
          Tables.fmt_float t_dbl_s;
          Tables.fmt_float t_dbl_k;
          Printf.sprintf "%.1fx" (t_dbl_s /. t_dbl_k);
          string_of_bool identical;
        ])
    [ 128; 256 ];
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E15: kp serve under load — admission control, deadlines, breakers    *)
(* ------------------------------------------------------------------ *)

module Srv = Kp_serve.Server.Make (F) (CK)
module SrvC = Kp_serve.Client
module SrvP = Kp_serve.Protocol
module SrvW = Kp_serve.Wire

let e15 () =
  print_endline
    "E15 (kp serve): the persistent solve service under load.  Three\n\
     segments: (load) concurrent clients stream keyed solves — every\n\
     admitted answer is re-verified client-side and overload rejections\n\
     are honoured by waiting out retry_after_ms; (shed) a queue_limit=0\n\
     daemon must turn every solve into a typed `overloaded` reply —\n\
     never a hang, never a wrong answer — while ping stays answerable;\n\
     (chaos) a daemon over a fault-injecting field demotes block→scalar\n\
     through its circuit breaker and re-promotes after the cooldown.\n\
     Set KP_SERVE_SOCKET to aim the load segment at an external daemon\n\
     (the CI serve-smoke job does); shed and chaos always run in-process.\n";
  let t =
    Tables.create ~title:"serve under load (latencies in ms)"
      ~columns:
        [ "segment"; "requests"; "ok"; "shed"; "errors"; "p50"; "p99";
          "engines" ]
  in
  let percentile lats p =
    match lats with
    | [] -> 0.
    | _ ->
      let a = Array.of_list lats in
      Array.sort compare a;
      let k = Array.length a in
      a.(min (k - 1) (max 0 (int_of_float (ceil (p *. float_of_int k)) - 1)))
  in
  let fmt_ms s = Printf.sprintf "%.1f" (s *. 1e3) in
  let rng = st () in
  let n = 24 in
  let a = M.random_nonsingular rng n in
  let entries = Array.init (n * n) (fun k -> M.get a (k / n) (k mod n)) in
  let sock_name tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kp-e15-%s-%d.sock" tag (Unix.getpid ()))
  in
  let status j = Option.value ~default:"?" (SrvP.response_status j) in
  let error_tag j =
    Option.bind (SrvW.member "error" j) (fun e ->
        Option.bind (SrvW.member "error" e) SrvW.to_str)
  in
  (* ---- load segment ---- *)
  let threads = if !fast then 3 else 4 in
  let per_thread = if !fast then 6 else 20 in
  let socket, local =
    match Sys.getenv_opt "KP_SERVE_SOCKET" with
    | Some path -> (path, None)
    | None ->
      let path = sock_name "load" in
      let srv = Srv.start (Srv.default_config ~socket_path:path)
          (Kp_util.Rng.make 4242) in
      (path, Some srv)
  in
  let results = Array.make threads ([], [], 0, 0) in
  let worker i () =
    let c = SrvC.connect socket in
    Fun.protect ~finally:(fun () -> SrvC.close c) @@ fun () ->
    let key = Printf.sprintf "e15-%d-%d" (Unix.getpid ()) i in
    let lats = ref [] and engines = ref [] and ok = ref 0 and shed = ref 0 in
    for j = 1 to per_thread do
      (* a planted solution makes every request verifiable client-side *)
      let x_true =
        Array.init n (fun k -> F.of_int (1 + ((1 + i + (31 * j) + k) mod 89)))
      in
      let b = M.matvec a x_true in
      let m =
        if j = 1 then SrvP.Inline { n; entries; key = Some key }
        else SrvP.Keyed key
      in
      let req =
        {
          SrvP.id = Some (Printf.sprintf "t%d-%d" i j);
          op = SrvP.Solve { m; b };
          engine = SrvP.E_auto;
          block_factor = None;
          deadline_ms = Some 10_000;
        }
      in
      let rec go tries =
        let t0 = Kp_obs.Clock.now_s () in
        let j' = SrvC.request c req in
        let dt = Kp_obs.Clock.now_s () -. t0 in
        match status j' with
        | "ok" ->
          lats := dt :: !lats;
          incr ok;
          let x =
            match Option.bind (SrvW.member "x" j') SrvW.to_list with
            | Some l ->
              Array.of_list (List.map (fun v -> Option.get (SrvW.to_int v)) l)
            | None -> failwith "E15: ok reply without x"
          in
          if not (Array.for_all2 F.equal (M.matvec a x) b) then
            failwith "E15: served solution failed clean re-verification";
          (match Option.bind (SrvW.member "engine" j') SrvW.to_str with
          | Some e when not (List.mem e !engines) -> engines := e :: !engines
          | _ -> ())
        | "error" when error_tag j' = Some "overloaded" ->
          (* honour the admission hint and retry *)
          incr shed;
          if tries > 20 then failwith "E15: shed 20 times in a row";
          let hint =
            match
              Option.bind (SrvW.member "error" j') (fun e ->
                  Option.bind (SrvW.member "retry_after_ms" e) SrvW.to_int)
            with
            | Some ms when ms >= 1 -> ms
            | _ -> failwith "E15: overloaded reply without a retry hint"
          in
          Unix.sleepf (float_of_int (min hint 50) /. 1e3);
          go (tries + 1)
        | s -> failwith (Printf.sprintf "E15: unexpected reply status %S" s)
      in
      go 0
    done;
    results.(i) <- (!lats, !engines, !ok, !shed)
  in
  let handles = List.init threads (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join handles;
  (match local with
  | Some srv -> Srv.stop srv
  | None -> ());
  let lats = List.concat_map (fun (l, _, _, _) -> l) (Array.to_list results) in
  let engines =
    List.sort_uniq compare
      (List.concat_map (fun (_, e, _, _) -> e) (Array.to_list results))
  in
  let ok = Array.fold_left (fun s (_, _, o, _) -> s + o) 0 results in
  let shed = Array.fold_left (fun s (_, _, _, d) -> s + d) 0 results in
  if ok <> threads * per_thread then
    failwith
      (Printf.sprintf "E15 load: %d/%d requests answered" ok
         (threads * per_thread));
  Tables.add_row t
    [ "load"; string_of_int (threads * per_thread); string_of_int ok;
      string_of_int shed; "0"; fmt_ms (percentile lats 0.5);
      fmt_ms (percentile lats 0.99); String.concat "+" engines ];
  (* ---- shed segment: queue_limit = 0 turns every solve into a typed
     overload; the daemon never hangs and stays observable ---- *)
  let path = sock_name "shed" in
  let cfg = { (Srv.default_config ~socket_path:path) with Srv.queue_limit = 0 } in
  let srv = Srv.start cfg (Kp_util.Rng.make 4243) in
  let burst = if !fast then 12 else 30 in
  let shed_lats = ref [] and sheds = ref 0 in
  (let c = SrvC.connect path in
   Fun.protect ~finally:(fun () -> SrvC.close c) @@ fun () ->
   for j = 1 to burst do
     let req =
       {
         SrvP.id = Some (Printf.sprintf "s%d" j);
         op = SrvP.Solve { m = SrvP.Inline { n; entries; key = None };
                           b = M.matvec a (Array.make n F.one) };
         engine = SrvP.E_auto;
         block_factor = None;
         deadline_ms = Some 1_000;
       }
     in
     let t0 = Kp_obs.Clock.now_s () in
     let j' = SrvC.request c req in
     shed_lats := (Kp_obs.Clock.now_s () -. t0) :: !shed_lats;
     match (status j', error_tag j') with
     | "error", Some "overloaded" -> incr sheds
     | s, e ->
       failwith
         (Printf.sprintf "E15 shed: expected overloaded, got %s/%s" s
            (Option.value ~default:"-" e))
   done;
   let j' = SrvC.request_line c {|{"op":"ping"}|} in
   match SrvW.parse j' with
   | Ok j' when status j' = "ok" -> ()
   | _ -> failwith "E15 shed: ping no longer answered");
  Srv.stop srv;
  if !sheds <> burst then
    failwith (Printf.sprintf "E15 shed: %d/%d typed rejections" !sheds burst);
  Tables.add_row t
    [ "shed"; string_of_int burst; "0"; string_of_int !sheds; "0";
      fmt_ms (percentile !shed_lats 0.5); fmt_ms (percentile !shed_lats 0.99);
      "-" ];
  (* ---- chaos segment: fault-injecting field behind the daemon; the
     block breaker demotes to scalar, then re-promotes after cooldown ---- *)
  let plan =
    Kp_robust.Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:10 ~seed:6 ()
  in
  let module FFld = Kp_robust.Fault.Field (F) in
  let module FF = (val FFld.wrap plan) in
  let module CF = Kp_poly.Conv.Karatsuba (FF) in
  let module FSrv = Kp_serve.Server.Make (FF) (CF) in
  let nc = 6 in
  let ac = M.random_nonsingular rng nc in
  let bc = M.matvec ac (Array.make nc F.one) in
  let path = sock_name "chaos" in
  let now = ref 0L in
  let cfg =
    {
      (FSrv.default_config ~socket_path:path) with
      FSrv.breaker_threshold = 1;
      breaker_cooldown_ms = 1;
    }
  in
  let srv = FSrv.start ~now:(fun () -> !now) cfg (Kp_util.Rng.make 4244) in
  let chaos_lats = ref [] in
  let seen =
    let c = SrvC.connect path in
    Fun.protect ~finally:(fun () -> SrvC.close c) @@ fun () ->
    List.map
      (fun (id, clock) ->
        now := clock;
        let req =
          {
            SrvP.id = Some id;
            op =
              SrvP.Solve
                {
                  m =
                    SrvP.Inline
                      {
                        n = nc;
                        entries =
                          Array.init (nc * nc) (fun k ->
                              M.get ac (k / nc) (k mod nc));
                        key = Some "chaos";
                      };
                  b = bc;
                };
            engine = SrvP.E_block;
            block_factor = Some 2;
            deadline_ms = None;
          }
        in
        let t0 = Kp_obs.Clock.now_s () in
        let j' = SrvC.request c req in
        chaos_lats := (Kp_obs.Clock.now_s () -. t0) :: !chaos_lats;
        if status j' <> "ok" then
          failwith ("E15 chaos: request " ^ id ^ " not served");
        let x =
          match Option.bind (SrvW.member "x" j') SrvW.to_list with
          | Some l ->
            Array.of_list (List.map (fun v -> Option.get (SrvW.to_int v)) l)
          | None -> failwith "E15 chaos: reply without x"
        in
        if not (Array.for_all2 F.equal (M.matvec ac x) bc) then
          failwith "E15 chaos: answer failed clean re-verification";
        Option.value ~default:"?"
          (Option.bind (SrvW.member "engine" j') SrvW.to_str))
      [ ("c1", 0L); ("c2", 0L); ("c3", 10_000_000L) ]
  in
  FSrv.stop srv;
  if seen <> [ "scalar"; "scalar"; "block" ] then
    failwith
      (Printf.sprintf "E15 chaos: engine walk was %s, want scalar,scalar,block"
         (String.concat "," seen));
  Tables.add_row t
    [ "chaos"; "3"; "3"; "0"; "0"; fmt_ms (percentile !chaos_lats 0.5);
      fmt_ms (percentile !chaos_lats 0.99); String.concat ">" seen ];
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E16: block Wiedemann — blocked Krylov phase vs the scalar engine     *)
(* ------------------------------------------------------------------ *)

let e16 () =
  let rng = st () in
  print_endline
    "E16 (block Wiedemann): one certified solve per engine on the same\n\
     prepared black box.  Both engines draw P first from the same seed, so\n\
     they iterate the same Ã = A·P: the scalar engine runs one Krylov pass\n\
     of 2n terms, the block engine b passes of σ = 2⌈n/b⌉+3 terms — ~2n\n\
     applies either way — and trades scalar Berlekamp–Massey for an\n\
     O(σ²b³) matrix generator.  'krylov' and 'generator' columns are the\n\
     span-measured phases (wiedemann.krylov / block.krylov,\n\
     wiedemann.generator / block.generator); answers are asserted identical\n\
     before any row is printed (the solution of a nonsingular system is\n\
     unique).\n";
  let t =
    Tables.create ~title:"block vs scalar black-box solve, single certified solves"
      ~columns:
        [ "n"; "b"; "solve scalar (s)"; "solve block (s)"; "krylov scalar (s)";
          "krylov block (s)"; "gen scalar (s)"; "gen block (s)"; "identical" ]
  in
  let span_total path =
    List.fold_left
      (fun acc (s : Kp_obs.Span.stat) ->
        if s.Kp_obs.Span.path = path then Int64.add acc s.Kp_obs.Span.total_ns
        else acc)
      0L (Kp_obs.Span.snapshot ())
  in
  (* run [f], returning its value, its wall time and the seconds it added
     to each span of [paths] *)
  let timed paths f =
    let t0 = List.map span_total paths in
    let x, secs = time f in
    let spans =
      List.map2
        (fun p t0 -> Int64.to_float (Int64.sub (span_total p) t0) /. 1e9)
        paths t0
    in
    (x, secs, spans)
  in
  let answer what = function
    | Ok (x, _) -> x
    | Error e ->
      failwith
        (Printf.sprintf "E16 %s: %s" what (Kp_robust.Outcome.error_to_string e))
  in
  let sizes = if !fast then [ 48; 96 ] else [ 256; 1024 ] in
  List.iter
    (fun n ->
      let a = M.random_nonsingular rng n in
      let rhs = Array.init n (fun _ -> F.random rng) in
      let bb = W.Bb.of_dense a in
      let x_scalar, t_scalar, scalar_spans =
        timed
          [ "wiedemann.solve_preconditioned/wiedemann.krylov";
            "wiedemann.solve_preconditioned/wiedemann.generator" ]
          (fun () ->
            answer "scalar"
              (W.solve_preconditioned (Kp_util.Rng.make 9001) bb rhs))
      in
      List.iter
        (fun bf ->
          let x_block, t_block, block_spans =
            timed [ "block.solve/block.krylov"; "block.solve/block.generator" ]
              (fun () ->
                answer
                  (Printf.sprintf "block b=%d" bf)
                  (BW.solve ~block_factor:bf (Kp_util.Rng.make 9001) bb rhs))
          in
          let identical = Array.for_all2 F.equal x_scalar x_block in
          if not identical then
            failwith
              (Printf.sprintf "E16: block (b=%d) and scalar answers differ" bf);
          Tables.add_row t
            ([ string_of_int n; string_of_int bf; Tables.fmt_float t_scalar;
               Tables.fmt_float t_block ]
            @ List.map Tables.fmt_float
                [ List.nth scalar_spans 0; List.nth block_spans 0;
                  List.nth scalar_spans 1; List.nth block_spans 1 ]
            @ [ string_of_bool identical ]))
        [ 1; 2; 4 ])
    sizes;
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E18: C-stub kernels vs the derived reference                        *)
(* ------------------------------------------------------------------ *)

let e18 () =
  let module D = Kp_kernel.Dispatch in
  let rng = st () in
  print_endline
    "E18 (C-stub kernels): the same one-off dense matvec, prepared dense\n\
     apply (the matrix prepared once as a black box's operator; the dense\n\
     prepare row times preparing it), matmul, butterfly apply\n\
     (diagonal + one exchange layer per stride, prepared once as a network\n\
     and applied in one kernel call; the prepare row times building it),\n\
     8-per-row CSR matvec and GF(p) Berlekamp-Massey on a 2n-term sequence\n\
     served by the C stubs\n\
     (split-sum, Shoup or Barrett GF(p) loops, no division per element,\n\
     bit-packed or tagged-word GF(2)) and by the derived reference kernel\n\
     (the field's own scalar ops, reached through its Generic-hinted twin).\n\
     Outputs are asserted bit-identical before timing, and kernel.cstub.*\n\
     counter movement proves the stub path is really taken.\n";
  let bench reps f =
    let (), t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    t
  in
  let t =
    Tables.create
      ~title:
        "C stubs vs derived on the same data, bit-identical (seconds; \
         speedup = derived/cstub)"
      ~columns:
        [ "field"; "op"; "n"; "reps"; "cstub"; "derived"; "cstub speedup";
          "identical" ]
  in
  let cstub_ops0 =
    Option.value ~default:0 (Kp_obs.Counter.find "kernel.cstub.bulk_ops")
  in
  (* [runner] gets the field itself, then its Generic twin *)
  let field_row field_name (fm : int Kp_field.Field_intf.field) op n reps
      runner =
    let module Fi =
      (val fm : Kp_field.Field_intf.FIELD with type t = int) in
    let module Twin = struct
      include Fi

      let kernel_hint = Kp_field.Field_intf.Generic
    end in
    let cstub_out, cstub_s = runner fm reps in
    let derived_out, derived_s =
      runner (module Twin : Kp_field.Field_intf.FIELD with type t = int) reps
    in
    let identical =
      Array.length cstub_out = Array.length derived_out
      && Array.for_all2 Fi.equal cstub_out derived_out
    in
    if not identical then
      failwith
        (Printf.sprintf "E18: cstub and derived disagree on %s %s n=%d"
           field_name op n);
    Tables.add_row t
      [
        field_name; op; string_of_int n; string_of_int reps;
        Tables.fmt_float cstub_s;
        Tables.fmt_float derived_s;
        Printf.sprintf "%.1fx" (derived_s /. cstub_s);
        string_of_bool identical;
      ]
  in
  let row field_name fm op n reps runner =
    field_row field_name fm op n reps (fun f reps -> runner (D.of_field f) reps)
  in
  let fields : (string * int Kp_field.Field_intf.field) list =
    [ ("GF(998244353)", (module Kp_field.Fields.Gf_ntt));
      ("GF(2)", (module Kp_field.Gf2)) ]
  in
  List.iter
    (fun (field_name, (fm : int Kp_field.Field_intf.field)) ->
      let module Fi =
        (val fm : Kp_field.Field_intf.FIELD with type t = int) in
      (* matvec: the acceptance-criterion op, n up to 512 even in --fast;
         the one-off product, then the same matrix prepared once and
         applied as a dense black box applies it *)
      List.iter
        (fun n ->
          let m = Array.init (n * n) (fun _ -> Fi.random rng) in
          let x = Array.init n (fun _ -> Fi.random rng) in
          let reps =
            let base = max 20 (4_000_000 / (n * n)) in
            if !fast then base else 4 * base
          in
          row field_name fm "matvec" n reps (fun k reps ->
              let module K = (val k) in
              let dst = Array.make n Fi.zero in
              K.matvec_into ~m ~cols:n ~row_lo:0 ~row_hi:n ~x ~dst;
              let secs =
                bench reps (fun () ->
                    K.matvec_into ~m ~cols:n ~row_lo:0 ~row_hi:n ~x ~dst)
              in
              (dst, secs));
          row field_name fm "dense apply" n reps (fun k reps ->
              let module K = (val k) in
              let op = K.dense_prepare ~rows:n ~cols:n m in
              let dst = Array.make n Fi.zero in
              let apply () = K.dense_apply_into op ~src:x ~dst in
              apply ();
              let out = Array.copy dst in
              (out, bench reps apply));
          if n = 512 then
            row field_name fm "dense prepare" n 20 (fun k reps ->
                let module K = (val k) in
                let secs =
                  bench reps (fun () -> K.dense_prepare ~rows:n ~cols:n m)
                in
                let dst = Array.make n Fi.zero in
                K.dense_apply_into (K.dense_prepare ~rows:n ~cols:n m) ~src:x
                  ~dst;
                (dst, secs)))
        [ 128; 256; 512 ];
      (* matmul: the Krylov-squaring shape (row-accumulator scratch path) *)
      List.iter
        (fun n ->
          let a = Array.init (n * n) (fun _ -> Fi.random rng) in
          let b = Array.init (n * n) (fun _ -> Fi.random rng) in
          let reps = if !fast then 1 else 2 in
          row field_name fm "matmul" n reps (fun k reps ->
              let module K = (val k) in
              let dst = Array.make (n * n) Fi.zero in
              K.matmul_into ~a ~b ~dst ~inner:n ~bcols:n ~row_lo:0 ~row_hi:n;
              let out = Array.copy dst in
              let secs =
                bench reps (fun () ->
                    Array.fill dst 0 (n * n) Fi.zero;
                    K.matmul_into ~a ~b ~dst ~inner:n ~bcols:n ~row_lo:0
                      ~row_hi:n)
              in
              (out, secs)))
        [ 128; 256 ];
      (* butterfly apply: the sparse preconditioner's network (diagonal,
         then one exchange layer per stride 1, 2, 4, … < n) prepared once
         and applied in one kernel call; n = 1000 is the sparse workload's
         ragged shape.  The prepare row times building the network. *)
      List.iter
        (fun n ->
          let d = Array.init n (fun _ -> Fi.random rng) in
          let v = Array.init n (fun _ -> Fi.random rng) in
          let rec count s = if s < n then 1 + count (2 * s) else 0 in
          let layers =
            Array.init (count 1) (fun l ->
                let stride = 1 lsl l in
                let k = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
                let coef () = Array.init k (fun _ -> Fi.random rng) in
                let a = coef () in
                let b = coef () in
                let c = coef () in
                { Kp_kernel.Kernel_intf.stride; a; b; c; dd = coef () })
          in
          let reps = if !fast then 200 else 800 in
          row field_name fm "butterfly" n reps (fun k reps ->
              let module K = (val k) in
              let net = K.butterfly_prepare ~d ~layers in
              let w = Array.make n Fi.zero in
              let apply () =
                K.butterfly_apply_into net ~transpose:false ~src:v ~dst:w
              in
              apply ();
              let out = Array.copy w in
              (out, bench reps apply));
          (* the prepare row's output is a fresh network's transposed
             apply, so the transpose is asserted bit-identical too *)
          let reps = if !fast then 20 else 80 in
          row field_name fm "butterfly prepare" n reps (fun k reps ->
              let module K = (val k) in
              let secs =
                bench reps (fun () -> K.butterfly_prepare ~d ~layers)
              in
              let w = Array.make n Fi.zero in
              K.butterfly_apply_into (K.butterfly_prepare ~d ~layers)
                ~transpose:true ~src:v ~dst:w;
              (w, secs)))
        [ 256; 1000; 1024 ];
      (* CSR product: the sparse workload's operator, 8 entries per row *)
      let n = 1000 and per_row = 8 in
      let row_ptr = Array.init (n + 1) (fun i -> i * per_row) in
      let cols = Array.init (n * per_row) (fun _ -> Random.State.int rng n) in
      let vals = Array.init (n * per_row) (fun _ -> Fi.random rng) in
      let x = Array.init n (fun _ -> Fi.random rng) in
      let reps = if !fast then 500 else 2000 in
      row field_name fm "csr matvec" n reps (fun k reps ->
          let module K = (val k) in
          let dst = Array.make n Fi.zero in
          let run () =
            K.csr_matvec_into ~row_ptr ~cols ~vals ~row_lo:0 ~row_hi:n ~x ~dst
          in
          run ();
          let out = Array.copy dst in
          (out, bench reps run)))
    fields;
  (* Berlekamp–Massey on a 2n-term sequence: one dot_acc per discrepancy
     and one axpy per update, so the whole run rides the field's kernel —
     the Massey of a GF(p) black-box solve *)
  List.iter
    (fun n ->
      let module Fi = Kp_field.Fields.Gf_ntt in
      let s = Array.init (2 * n) (fun _ -> Fi.random rng) in
      let reps = if !fast then 3 else 10 in
      field_row "GF(998244353)" (module Fi) "massey 2n" n reps (fun f reps ->
          let module BM =
            Kp_seqgen.Berlekamp_massey.Make
              ((val f : Kp_field.Field_intf.FIELD with type t = int))
          in
          let c = BM.connection_polynomial s in
          (c, bench reps (fun () -> BM.connection_polynomial s))))
    [ 256; 1000 ];
  let ops =
    Option.value ~default:0 (Kp_obs.Counter.find "kernel.cstub.bulk_ops")
  in
  if ops <= cstub_ops0 then
    failwith "E18: kernel.cstub.bulk_ops did not advance — stub path not taken";
  Tables.print t

(* ------------------------------------------------------------------ *)
(* E19: preconditioner kinds on sparse GF(2) operators                  *)
(* ------------------------------------------------------------------ *)

let e19 () =
  let module Pc = Kp_precond.Precond in
  let module F2 = Kp_field.Fields.Gf2 in
  let module C2 = Kp_poly.Conv.Karatsuba_field (F2) in
  let module SP2 = Kp_precond.Precond.Make (F2) (C2) in
  let module Sp2 = Kp_matrix.Sparse.Make (F2) in
  (* counted instantiation — Counting.Make preserves [t = F.t], so the
     CSR value arrays of the GF(2) matrix are reused verbatim *)
  let module Cnt2 = Kp_field.Counting.Make (F2) in
  let module CC2 = Kp_poly.Conv.Karatsuba (Cnt2) in
  let module CSP2 = Kp_precond.Precond.Make (Cnt2) (CC2) in
  let module CSp2 = Kp_matrix.Sparse.Make (Cnt2) in
  let rng = st () in
  print_endline
    "E19 (preconditioner kinds on sparse GF(2)): field ops of one\n\
     preconditioner apply, measured through a counting field, for the\n\
     dense Hankel*Diagonal vs the butterfly vs the GF(2^8) extension\n\
     butterfly, next to the cost of the sparse operator itself across a\n\
     density sweep.  The dense P costs ~n^1.58 ops per apply (Karatsuba\n\
     Hankel matvec) and swamps A's ~2*nnz; the sparse kinds stay\n\
     O(n log n), so the preconditioned black box stays sparse end to\n\
     end.  Asserted per row: sparse < dense; across sizes: the\n\
     dense/sparse ratio grows with n (the asymptotic claim).\n";
  let measure_ops2 f =
    let _, c = Cnt2.measure f in
    Counting.total c
  in
  let builds0 name =
    Option.value ~default:0 (Kp_obs.Counter.find ("precond.build." ^ name))
  in
  let sparse_builds0 = builds0 "sparse" and dense_builds0 = builds0 "dense" in
  let t =
    Tables.create
      ~title:
        "field ops per apply on sparse GF(2) input (counting field; \
         seconds = one apply, uncounted)"
      ~columns:
        [ "n"; "density"; "nnz"; "A ops"; "dense P ops"; "sparse P ops";
          "ext P ops"; "dense/sparse"; "dense s"; "sparse s" ]
  in
  let sizes = if !fast then [ 64; 128; 256 ] else [ 128; 256; 512; 1024 ] in
  let densities = [ 0.01; 0.03; 0.1 ] in
  let lead_ratios = ref [] in
  List.iter
    (fun n ->
      List.iteri
        (fun di density ->
          let a = Sp2.random_nonsingular rng n ~density in
          let nnz = Sp2.nnz a in
          let row_ptr, col_idx, values = Sp2.csr a in
          let trips = ref [] in
          for i = n - 1 downto 0 do
            for k = row_ptr.(i + 1) - 1 downto row_ptr.(i) do
              trips := (i, col_idx.(k), values.(k)) :: !trips
            done
          done;
          let ca = CSp2.of_triplets ~rows:n ~cols:n !trips in
          let v = Array.init n (fun _ -> F2.random rng) in
          let a_ops = measure_ops2 (fun () -> CSp2.matvec ca v) in
          let counted_ops kind =
            let p = CSP2.build ~card_s:256 ~n kind rng in
            measure_ops2 (fun () -> p.Pc.apply v)
          in
          let dense_ops = counted_ops Pc.Dense_hd in
          let sparse_ops = counted_ops Pc.Sparse_butterfly in
          let ext_ops = counted_ops Pc.Ext_field in
          if sparse_ops >= dense_ops then
            failwith
              (Printf.sprintf
                 "E19: butterfly apply (%d ops) not cheaper than dense H*D \
                  (%d ops) at n=%d"
                 sparse_ops dense_ops n);
          let wall kind =
            let p = SP2.build ~card_s:256 ~n kind rng in
            let reps = if !fast then 20 else 100 in
            let (), s =
              time (fun () ->
                  for _ = 1 to reps do
                    ignore (Sys.opaque_identity (p.Pc.apply v))
                  done)
            in
            s /. float_of_int reps
          in
          let ratio = float_of_int dense_ops /. float_of_int sparse_ops in
          if di = 0 then lead_ratios := (n, ratio) :: !lead_ratios;
          Tables.add_row t
            [
              string_of_int n; Printf.sprintf "%.2f" density;
              string_of_int nnz; string_of_int a_ops;
              string_of_int dense_ops; string_of_int sparse_ops;
              string_of_int ext_ops; Printf.sprintf "%.1fx" ratio;
              Tables.fmt_float (wall Pc.Dense_hd);
              Tables.fmt_float (wall Pc.Sparse_butterfly);
            ])
        densities)
    sizes;
  (match (List.rev !lead_ratios, !lead_ratios) with
  | (n_small, r_small) :: _, (n_big, r_big) :: _ when n_small <> n_big ->
    if r_big <= r_small then
      failwith
        (Printf.sprintf
           "E19: dense/sparse ops ratio did not grow with n (%.1fx at n=%d \
            vs %.1fx at n=%d)"
           r_small n_small r_big n_big)
  | _ -> ());
  if builds0 "sparse" <= sparse_builds0 || builds0 "dense" <= dense_builds0
  then failwith "E19: precond.build.* counters did not advance";
  Tables.print t

let all_tables =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E18", e18); ("E19", e19) ]

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "bench: %s\n" m;
      Printf.eprintf
        "usage: main.exe [--table E1 ... | all] [--fast] [--json FILE]\n";
      exit 2)
    fmt

let () =
  let requested = ref [] in
  let json_out = ref None in
  let args = Array.to_list Sys.argv |> List.tl in
  let valid = List.map fst all_tables in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--table" :: name :: rest ->
      let name = String.uppercase_ascii name in
      if not (List.mem name valid) then
        usage_error "unknown table %S (valid: %s)" name
          (String.concat " " valid);
      requested := name :: !requested;
      parse rest
    | [ "--table" ] ->
      usage_error "--table needs a name (%s)" (String.concat " " valid)
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse rest
    | [ "--json" ] -> usage_error "--json needs a file path"
    | "all" :: rest -> parse rest
    | unknown :: _ -> usage_error "unknown argument %S" unknown
  in
  parse args;
  let selected =
    if !requested = [] then all_tables
    else List.filter (fun (n, _) -> List.mem n !requested) all_tables
  in
  Printf.printf
    "Kaltofen–Pan (SPAA 1991) experiment harness%s\n\n"
    (if !fast then " [fast mode]" else "");
  let records = ref [] in
  List.iter
    (fun (name, run) ->
      Printf.printf "==== %s ====\n%!" name;
      (* fresh measurement window per table: monotonic spans, blackbox /
         solver / pool counters, and the field-op tallies all restart at 0,
         so the STATS line below is attributable to this table alone *)
      Kp_obs.Export.reset ();
      Cnt.reset ();
      let _, secs = time run in
      Printf.printf "(%s finished in %.1fs)\n%!" name secs;
      (* one-line machine-readable summary (op counts next to seconds);
         --json captures exactly these records into a kp-bench/1 run file *)
      let stats =
        Kp_obs.Export.to_json ~label:name
          ~extra:[ ("seconds", Printf.sprintf "%.3f" secs) ]
          ~events:false ()
      in
      records := stats :: !records;
      Printf.printf "STATS %s\n\n%!" stats)
    selected;
  match !json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Printf.fprintf oc
      "{\"schema\":\"kp-bench/1\",\"fast\":%b,\"tables\":[\n%s\n]}\n" !fast
      (String.concat ",\n" (List.rev !records));
    close_out oc;
    Printf.printf "wrote %s (%d tables)\n" file (List.length !records)
