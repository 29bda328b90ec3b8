module Make (F : Kp_field.Field_intf.FIELD) = struct
  module W = Wiedemann.Make (F)
  module Bb = W.Bb
  module M = Kp_matrix.Dense.Make (F)
  module LR = Kp_seqgen.Linrec.Make (F)
  module MBM = Kp_seqgen.Matrix_bm.Make (F)
  module G = Kp_matrix.Gauss.Make (F)
  module Pc = Kp_precond.Precond
  module Lv = Las_vegas.Make (F)

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span
  module Cnt = Kp_obs.Counter

  let c_blocks = Cnt.make "block.krylov.blocks"
  let c_escalate = Cnt.make "block.factor.escalate"
  let c_batched = Cnt.make "block.solve.batched"

  (* wide enough to amortize the generator's b×b steps on large systems,
     but never wider than n/2 (a block the size of the matrix degenerates
     the sequence to a handful of terms) *)
  let auto_block_factor ~n = if n >= 64 then 4 else 1

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

     Draw the §2 preconditioner P, an n×b start block V whose first
     columns are the right-hand sides (the rest random, drawn row by row),
     a b×n projection Uᵀ and, with [~certify], a second one Uᵀ′.  Each
     column v of V then runs one scalar Krylov pass of Ã = A·P, σ − 1
     applies projected onto every row of Uᵀ (and Uᵀ′), keeping its first
     [keep] vectors Ãⁱ·v; entry (r, c) of S_i = Uᵀ·Ãⁱ·V is row r's
     projection in column c's pass. *)
  type phase = {
    p : F.t Pc.t;
    a_tilde : Bb.t;
    v : F.t array array;  (* the columns of V *)
    bases : F.t array array array;  (* column c's kept Ãⁱ·v_c *)
    seq : F.t array array;  (* S_i, row-major b×b *)
    seq' : F.t array array;  (* Uᵀ′·Ãⁱ·V, empty without [~certify] *)
  }

  let krylov_phase ~certify ~keep ~kind st ~card_s ~b (bb : Bb.t) ~rhs =
    let n = bb.Bb.dim in
    let p, a_tilde = W.precondition ~card_s kind st bb in
    let k = Array.length rhs in
    let random = M.sample st ~card_s n (b - k) in
    let v =
      Array.init b (fun c ->
          if c < k then rhs.(c)
          else Array.init n (fun i -> M.get random i (c - k)))
    in
    let projections () = Array.init b (fun _ -> Lv.sample_vec st ~card_s n) in
    let ut = projections () in
    let ut' = if certify then projections () else [||] in
    let m = sigma ~n ~b in
    let passes =
      Span.with_ "block.krylov" @@ fun () ->
      Array.map
        (fun vc ->
          LR.krylov_pass a_tilde.Bb.apply_into ~us:(Array.append ut ut') ~b:vc
            ~keep m)
        v
    in
    Cnt.add c_blocks m;
    let terms off rows =
      Array.init (if rows = 0 then 0 else m) (fun i ->
          Array.init (b * b) (fun rc ->
              (fst passes.(rc mod b)).(off + (rc / b)).(i)))
    in
    {
      p;
      a_tilde;
      v;
      bases = Array.map snd passes;
      seq = terms 0 b;
      seq' = terms b (Array.length ut');
    }

  (* Y·c for Y the n×b matrix whose column j is Σ_{i≥1} Ãⁱ⁻¹·V·fᵢ{^(j)}
     over generator column j.  Each column lifts to Σᵢ Ãⁱ·V·fᵢ = 0 (whp),
     so Ã·Y = −V·F(0): solutions and kernel vectors both come from Y·c.
     With g = F·c, Y·c = Σ_c Σ_{i≥1} (gᵢ)_c·Ãⁱ⁻¹·v_c: one Cayley–Hamilton
     sum per column of V, read off that column's kept basis *)
  let y_times ph (gen : MBM.generator) c =
    let deg = Array.fold_left max 0 gen.MBM.degrees in
    let acc = Array.make ph.a_tilde.Bb.dim F.zero in
    Array.iteri
      (fun col v ->
        let g_i i =
          let s = ref F.zero in
          Array.iteri
            (fun j f ->
              if i < Array.length f then s := F.add !s (F.mul c.(j) f.(i).(col)))
            gen.MBM.cols;
          !s
        in
        let g = Array.init (deg + 1) g_i in
        let y = W.cayley_hamilton_sum ~basis:ph.bases.(col) ph.a_tilde g ~deg v in
        Array.iteri (fun r x -> acc.(r) <- F.add acc.(r) x) y)
      ph.v;
    acc

  (* ---- generator recovery and validation ----

     The candidate matrix generator must (a) generate the sequence it was
     computed from, (b) be column-reduced (det Λ ≠ 0, certifying
     deg det F = Σδ), (c) have Σδ = n (else the projections missed part of
     the space), and (d) have non-singular F(0) (the block analogue of
     f(0) ≠ 0).  A singular F(0), whatever Σδ, is the block analogue of
     λ | f: with F(0)·c = 0, Ã·(Y·c) = −V·F(0)·c = 0, so w = P·(Y·c) is
     checked against A ([apply]); Σδ < n alone proves nothing. *)
  let generator_phase ~apply ~b ~n ph =
    Span.with_ "block.generator" @@ fun () ->
    let gen = MBM.minimal_generator ~b ph.seq in
    if not (MBM.generates ~b ph.seq gen) then
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
        | c :: _ -> Lv.singular ~apply (ph.p.Pc.apply (y_times ph gen c))
      in
      if F.is_zero det_lam then Error (Rt.Reject O.Low_degree)
      else if dsum < n then
        Error (if singular_f0 () then kernel () else Rt.Reject O.Low_degree)
      else if
        dsum > n
        || Array.exists (fun dj -> dj > sigma ~n ~b) gen.MBM.degrees
      then Error (Rt.Reject O.Low_degree)
      else if singular_f0 () then Error (kernel ())
      else Ok (gen, f0, det_lam, Lazy.force det_f0)
    end

  (* ---- solve extraction ----

     Any c ∈ K{^b} gives Ã·(−Y·c) = V·(F(0)·c); choosing c = F(0)⁻¹·e_t
     makes the right side exactly the t-th column of V — the t-th
     right-hand side.  The random padding columns of V drop out exactly,
     so one generator serves every target.  x = P·x̃ undoes the
     preconditioner; Las Vegas: every solution is checked against
     A·x = b. *)
  let extract_solutions ~apply ~b ph ~gen ~f0 rhs =
    Span.with_ "block.recover" @@ fun () ->
    match G.inverse f0 with
    | None -> Rt.Reject (O.Fault "singular F(0) after det check")
    | Some f0_inv ->
      let solve_one t bvec =
        let c = Array.init b (fun r -> M.get f0_inv r t) in
        let x = ph.p.Pc.apply (Array.map F.neg (y_times ph gen c)) in
        if Lv.solves apply x bvec then Some x else None
      in
      let xs = Array.mapi solve_one rhs in
      if Array.for_all Option.is_some xs then Rt.Accept (Array.map Option.get xs)
      else Rt.Reject O.Residual_mismatch

  let check_dim op n =
    if n < 1 then invalid_arg (op ^ ": empty black box")

  (* one batched block solve: all right-hand sides of the chunk ride the
     same Krylov passes (k ≤ b columns of V), one generator serves all;
     each column keeps the vectors the scalar engine's rule allows, all σ
     on a dense A *)
  let solve_chunk ?retries ?card_s ?deadline_ns ~b ~kind st (bb : Bb.t) rhs =
    let n = bb.Bb.dim in
    let apply = Bb.apply (Bb.instrument bb) in
    let k = Array.length rhs in
    Lv.run ~ns:"block" ~op:"solve" ?retries ?card_s ?deadline_ns ~kind ~n
    @@ fun ~attempt ~kind ~card_s ->
    let b_eff = max k (attempt_block ~n ~b ~attempt) in
    let keep = min (sigma ~n ~b:b_eff) (W.kept bb) in
    let ph =
      krylov_phase ~certify:false ~keep ~kind st ~card_s ~b:b_eff bb ~rhs
    in
    match generator_phase ~apply ~b:b_eff ~n ph with
    | Error reject -> reject
    | Ok (gen, f0, _det_lam, _det_f0) ->
      extract_solutions ~apply ~b:b_eff ph ~gen ~f0 rhs

  (* chunk width: never more right-hand sides than rows, and keep the
     start block narrow enough that σ ≥ 5 terms still cost ~2n³ total *)
  let chunk_width n = max 1 (min n 32)

  (* the blocking factor asked for, clamped to n; auto by default *)
  let block_of ~op ~n = function
    | Some b when b >= 1 -> min b (max 1 n)
    | Some _ -> invalid_arg (op ^ ": block_factor < 1")
    | None -> auto_block_factor ~n

  let solve_batch ?retries ?card_s ?deadline_ns ?block_factor
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) rhs =
    Span.with_ "block.solve" @@ fun () ->
    let op = "Block_wiedemann.solve_batch" in
    let n = bb.Bb.dim in
    check_dim op n;
    if Array.exists (fun b -> Array.length b <> n) rhs then
      invalid_arg (op ^ ": bad rhs length");
    let b = block_of ~op ~n block_factor in
    let kind = W.kind_of precond in
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
            solve_chunk ?retries ?card_s ?deadline_ns ~b ~kind st bb chunk
          with
          | Ok (xs, r) -> go (start + len) (xs :: acc) (O.merge_reports report r)
          | Error e -> Error (O.with_report (O.merge_reports report) e)
        end
      in
      go 0 [] O.empty_report
    end

  let solve ?retries ?card_s ?deadline_ns ?block_factor ?precond st bb b =
    Result.map
      (fun (xs, report) -> (xs.(0), report))
      (solve_batch ?retries ?card_s ?deadline_ns ?block_factor ?precond st bb
         [| b |])

  (* ---- determinant ----

     det F(λ) = det Λ · det(λI − Ã) when Σδ = n and Λ is invertible, so
     det Ã = (−1)ⁿ · det F(0) / det Λ and det A = det Ã / det P.  Like the
     scalar engine, a det has no residual certificate: each evaluation
     also projects its Krylov passes onto a fresh Uᵀ′ (the recurrence
     certificate against corrupted applies), evaluates det P twice, and
     [det] requires two fully independent evaluations to agree.  It keeps
     no Krylov vectors: a singular verdict's w re-applies Ã. *)
  let det_eval ~apply ~kind st ~card_s ~b (bb : Bb.t) =
    let n = bb.Bb.dim in
    let ph = krylov_phase ~certify:true ~keep:0 ~kind st ~card_s ~b bb ~rhs:[||] in
    match generator_phase ~apply ~b ~n ph with
    | Error reject -> reject
    | Ok (gen, _f0, det_lam, det_f0) ->
      if not (MBM.generates ~b ph.seq' gen) then
        Rt.Reject (O.Fault "block recurrence check failed")
      else begin
        match Lv.det_p ~twice:true ph.p with
        | Error reason -> Rt.Reject reason
        | Ok dp ->
          let chi0 = F.div det_f0 det_lam in
          let det_tilde = if n land 1 = 0 then chi0 else F.neg chi0 in
          Rt.Accept (F.div det_tilde dp)
      end

  let det ?retries ?card_s ?deadline_ns ?block_factor
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) =
    Span.with_ "block.det" @@ fun () ->
    let op = "Block_wiedemann.det" in
    let n = bb.Bb.dim in
    check_dim op n;
    let b = block_of ~op ~n block_factor in
    let apply = Bb.apply (Bb.instrument bb) in
    Lv.det ~ns:"block" ?retries ?card_s ?deadline_ns ~kind:(W.kind_of precond)
      ~n
    @@ fun ~attempt ~kind ~card_s ->
    let b_eff = attempt_block ~n ~b ~attempt in
    fun () -> det_eval ~apply ~kind st ~card_s ~b:b_eff bb
end
