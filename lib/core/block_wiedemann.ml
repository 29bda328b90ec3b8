module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module P = Pipeline.Make (F) (C)
  module M = P.M
  module K = P.K
  module MD = Kp_matrix.Dense.Make (F)
  module MBM = Kp_seqgen.Matrix_bm.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Pc = Kp_precond.Precond
  module SP = Kp_precond.Precond.Make (F) (C)
  module Lv = Las_vegas.Make (F)

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span
  module Cnt = Kp_obs.Counter

  let c_blocks = Cnt.make "block.krylov.blocks"
  let c_escalate = Cnt.make "block.factor.escalate"
  let c_batched = Cnt.make "block.solve.batched"

  (* wide enough to use every worker of the pool and to amortize the kernel
     call overhead on large systems, but never wider than n/2 (a block the
     size of the matrix degenerates the sequence to a handful of terms) *)
  let auto_block_factor ~n ~pool =
    let workers =
      match pool with None -> 1 | Some p -> Kp_util.Pool.size p
    in
    let base = max workers (if n >= 64 then 4 else 1) in
    max 1 (min base (min 8 (max 1 (n / 2))))

  (* blocking factor for this attempt: retries escalate the width along
     with |S| — a wider block sees a strictly larger Krylov space, so bad
     projection luck cannot repeat indefinitely *)
  let attempt_block ~n ~b ~attempt =
    let b_eff = min (max 1 n) (b + attempt - 1) in
    if b_eff > b then Cnt.incr c_escalate;
    b_eff

  (* enough b×b terms to determine a generator with column degrees summing
     to n, plus a safety margin that gives [generates] real windows *)
  let sigma ~n ~b = (2 * (((n + b) - 1) / b)) + 3

  let square_of_flat b flat = M.init b b (fun r c -> flat.((r * b) + c))

  (* ---- the block Krylov phase ----

     Draw the §2 preconditioner P, a b×n projection Uᵀ and an n×b start
     block V whose first columns are the right-hand sides (the rest
     random); produce K_i = Ãⁱ·V for i < σ and the projected b×b sequence
     S_i = Uᵀ·K_i.  Each step is one kernel-backed n×n by n×b product —
     the b-column replacement for the scalar engine's matvec chain. *)
  let krylov_phase ~mul ~kind st ~card_s ~b (a : M.t) ~rhs =
    let n = a.M.rows in
    let p = SP.build ~card_s ~n kind st in
    let a_tilde = P.preconditioned ~mul a p in
    let k = Array.length rhs in
    let v =
      M.init n b (fun i j ->
          if j < k then rhs.(j).(i) else F.sample st ~card_s)
    in
    let ut = MD.sample st ~card_s b n in
    let m = sigma ~n ~b in
    let ks = Span.with_ "block.sequence" @@ fun () -> K.blocks ~mul a_tilde v m in
    Cnt.add c_blocks m;
    let seq = K.block_sequence ~mul ~ut ks in
    (p, ks, seq)

  (* Y, the n×b matrix whose column j is Σ_{i≥1} K_{i−1}·fᵢ{^(j)} over
     generator column j.  Each column lifts to Σᵢ Ãⁱ·V·fᵢ = 0 (whp), so
     Ã·Y = −V·F(0): solutions and kernel vectors both come from Y *)
  let y_matrix ~n ~ks gen =
    let cols =
      Array.mapi
        (fun j col ->
          K.block_combination ks
            (Array.init gen.MBM.degrees.(j) (fun i -> col.(i + 1))))
        gen.MBM.cols
    in
    M.init n gen.MBM.b (fun r j -> cols.(j).(r))

  (* ---- generator recovery and validation ----

     The candidate matrix generator must (a) generate the sequence it was
     computed from, (b) be column-reduced (det Λ ≠ 0, certifying
     deg det F = Σδ), (c) have Σδ = n (else the projections missed part of
     the space), and (d) have non-singular F(0) (the block analogue of
     f(0) ≠ 0).  A singular F(0), whatever Σδ, is the block analogue of
     λ | f: with F(0)·c = 0, Ã·(Y·c) = −V·F(0)·c = 0, so w = P·(Y·c) is
     checked against A ([apply]); Σδ < n alone proves nothing. *)
  let generator_phase ~apply ~b ~n ~sigma ~p ~ks seq =
    Span.with_ "block.generator" @@ fun () ->
    let gen = MBM.minimal_generator ~b seq in
    if not (MBM.generates ~b seq gen) then
      Error (Rt.Reject (O.Fault "block generator check failed"))
    else begin
      let det_lam = G.det (square_of_flat b (MBM.leading_term gen)) in
      let dsum = MBM.degree_sum gen in
      let f0 = square_of_flat b (MBM.constant_term gen) in
      let det_f0 = lazy (G.det f0) in
      let singular_f0 () = F.is_zero (Lazy.force det_f0) in
      let kernel () =
        match G.nullspace f0 with
        | [] -> Rt.Reject (O.Fault "singular F(0) has no kernel")
        | c :: _ ->
          Lv.singular ~apply (p.Pc.apply (M.matvec (y_matrix ~n ~ks gen) c))
      in
      if F.is_zero det_lam then Error (Rt.Reject O.Low_degree)
      else if dsum < n then
        Error (if singular_f0 () then kernel () else Rt.Reject O.Low_degree)
      else if dsum > n || Array.exists (fun dj -> dj > sigma) gen.MBM.degrees
      then Error (Rt.Reject O.Low_degree)
      else if singular_f0 () then Error (kernel ())
      else Ok (gen, f0, det_lam, Lazy.force det_f0)
    end

  (* undo the preconditioner, exactly as the scalar pipeline does:
     Ã = A·P solves Ã·x̃ = b, so x = P·x̃ *)
  let recover ?pool ~p x_tilde = p.Pc.apply ?pool x_tilde

  (* ---- solve extraction ----

     Any c ∈ K{^b} gives Ã·(−Y·c) = V·(F(0)·c); choosing c = F(0)⁻¹·e_t
     makes the right side exactly the t-th column of V — the t-th
     right-hand side.  The random padding columns of V drop out exactly,
     so one Y serves every target.  Las Vegas: every solution is checked
     against A·x = b. *)
  let extract_solutions ?pool ~n ~p ~ks ~gen ~f0 (a : M.t) rhs =
    Span.with_ "block.recover" @@ fun () ->
    match G.inverse f0 with
    | None -> Error (Rt.Reject (O.Fault "singular F(0) after det check"))
    | Some f0_inv ->
      (* column t of Y·F(0)⁻¹ is −x̃ for the t-th right-hand side *)
      let z = M.mul (y_matrix ~n ~ks gen) f0_inv in
      let solve_one t bvec =
        let x_tilde = Array.init n (fun r -> F.neg (M.get z r t)) in
        let x = recover ?pool ~p x_tilde in
        if Lv.solves (M.matvec a) x bvec then Some x else None
      in
      let xs = Array.mapi solve_one rhs in
      if Array.for_all Option.is_some xs then
        Ok (Array.map Option.get xs)
      else Error (Rt.Reject O.Residual_mismatch)

  (* one batched block solve: all right-hand sides of the chunk ride the
     same Krylov sequence (k ≤ b columns of V), one generator serves all *)
  let solve_chunk ?retries ?card_s ?deadline_ns ~pool ~b ~precond st
      (a : M.t) rhs =
    let n = a.M.rows in
    let mul = MD.mul_pooled pool in
    let k = Array.length rhs in
    Lv.run ~ns:"block" ~op:"solve" ?retries ?card_s ?deadline_ns
      ~kind:(Pc.resolve precond) ~n
    @@ fun ~attempt ~kind ~card_s ->
    let b_eff = max k (attempt_block ~n ~b ~attempt) in
    let p, ks, seq = krylov_phase ~mul ~kind st ~card_s ~b:b_eff a ~rhs in
    match
      generator_phase ~apply:(M.matvec a) ~b:b_eff ~n
        ~sigma:(sigma ~n ~b:b_eff) ~p ~ks seq
    with
    | Error reject -> reject
    | Ok (gen, f0, _det_lam, _det_f0) -> begin
        match extract_solutions ?pool ~n ~p ~ks ~gen ~f0 a rhs with
        | Error reject -> reject
        | Ok xs -> Rt.Accept xs
      end

  let check_square op (a : M.t) =
    if a.M.cols <> a.M.rows then invalid_arg (op ^ ": non-square")

  let check_rhs op n rhs =
    Array.iter
      (fun b ->
        if Array.length b <> n then invalid_arg (op ^ ": bad rhs length"))
      rhs

  (* chunk width: never more right-hand sides than rows, and keep the
     start block narrow enough that σ ≥ 5 terms still cost ~2n³ total *)
  let chunk_width n = max 1 (min n 32)

  (* the blocking factor asked for, clamped to n; auto by default *)
  let block_of ~op ~n ~pool = function
    | Some b when b >= 1 -> min b (max 1 n)
    | Some _ -> invalid_arg (op ^ ": block_factor < 1")
    | None -> auto_block_factor ~n ~pool

  let solve_batch ?retries ?card_s ?deadline_ns ?pool ?block_factor
      ?(precond = Pc.default_choice ()) st (a : M.t) rhs =
    Span.with_ "block.solve" @@ fun () ->
    let n = a.M.rows in
    check_square "Block_wiedemann.solve_batch" a;
    check_rhs "Block_wiedemann.solve_batch" n rhs;
    let b = block_of ~op:"Block_wiedemann.solve_batch" ~n ~pool block_factor in
    let k = Array.length rhs in
    if k = 0 then Ok ([||], O.empty_report)
    else begin
      Cnt.add c_batched k;
      let w = chunk_width n in
      let rec go start acc report =
        if start >= k then Ok (Array.concat (List.rev acc), report)
        else begin
          let len = min w (k - start) in
          let chunk = Array.sub rhs start len in
          match
            solve_chunk ?retries ?card_s ?deadline_ns ~pool ~b ~precond st a
              chunk
          with
          | Ok (xs, r) -> go (start + len) (xs :: acc) (O.merge_reports report r)
          | Error e -> Error (O.with_report (O.merge_reports report) e)
        end
      in
      go 0 [] O.empty_report
    end

  let solve ?retries ?card_s ?deadline_ns ?pool ?block_factor ?precond st
      (a : M.t) b =
    match
      solve_batch ?retries ?card_s ?deadline_ns ?pool ?block_factor ?precond st
        a [| b |]
    with
    | Ok (xs, report) -> Ok (xs.(0), report)
    | Error e -> Error e

  (* ---- determinant ----

     det F(λ) = det Λ · det(λI − Ã) when Σδ = n and Λ is invertible, so
     det Ã = (−1)ⁿ · det F(0) / det Λ and det A = det Ã / det(H·D).
     Like the scalar engine, a det has no residual certificate: each
     evaluation re-projects the same Krylov blocks onto a fresh Uᵀ′ (the
     recurrence certificate against corrupted blocks), recomputes det(P)
     twice, and [det] requires two fully independent evaluations to agree. *)
  let det_eval ~mul ~kind st ~card_s ~b (a : M.t) =
    let n = a.M.rows in
    let p, ks, seq = krylov_phase ~mul ~kind st ~card_s ~b a ~rhs:[||] in
    match
      generator_phase ~apply:(M.matvec a) ~b ~n ~sigma:(sigma ~n ~b) ~p ~ks seq
    with
    | Error reject -> reject
    | Ok (gen, _f0, det_lam, det_f0) ->
      let ut' = MD.sample st ~card_s b n in
      let seq' = K.block_sequence ~mul ~ut:ut' ks in
      if not (MBM.generates ~b seq' gen) then
        Rt.Reject (O.Fault "block recurrence check failed")
      else begin
        match Lv.det_p ~twice:true p with
        | Error reason -> Rt.Reject reason
        | Ok dp ->
          let chi0 = F.div det_f0 det_lam in
          let det_tilde = if n land 1 = 0 then chi0 else F.neg chi0 in
          Rt.Accept (F.div det_tilde dp)
      end

  let det ?retries ?card_s ?deadline_ns ?pool ?block_factor
      ?(precond = Pc.default_choice ()) st (a : M.t) =
    Span.with_ "block.det" @@ fun () ->
    let n = a.M.rows in
    check_square "Block_wiedemann.det" a;
    let b = block_of ~op:"Block_wiedemann.det" ~n ~pool block_factor in
    let mul = MD.mul_pooled pool in
    Lv.det ~ns:"block" ?retries ?card_s ?deadline_ns ~kind:(Pc.resolve precond)
      ~n
    @@ fun ~attempt ~kind ~card_s ->
    let b_eff = attempt_block ~n ~b ~attempt in
    fun () -> det_eval ~mul ~kind st ~card_s ~b:b_eff a
end
