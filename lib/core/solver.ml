module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module P = Pipeline.Make (F) (C)
  module M = P.M
  module MD = Kp_matrix.Dense.Make (F)
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module LR = Kp_seqgen.Linrec.Make (F)
  module Pc = Kp_precond.Precond
  module SP = Kp_precond.Precond.Make (F) (C)

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span

  let charpoly_for_field ?pool ~n =
    if F.characteristic = 0 || F.characteristic > n then
      P.charpoly_leverrier_pooled pool
    else P.charpoly_chistov_pooled pool

  type route = Massey_elimination | Toeplitz_charpoly

  exception Linear_complexity_exceeds of int

  (* Berlekamp–Massey on the 2n-term sequence, in the Toeplitz route's
     output shape: the monic degree-n generator, low-to-high.  Linear
     complexity L < n means the n×n Hankel of the sequence is singular —
     raised as the Division_by_zero the Toeplitz route raises there.
     L > n is impossible for {u·Ãⁱ·v} with Ã n×n, so only a corrupted
     sequence gets here. *)
  let massey_generator ~n seq =
    let c = BM.connection_polynomial seq in
    let l = Array.length c - 1 in
    if l < n then raise Division_by_zero
    else if l > n then raise (Linear_complexity_exceeds l)
    else Array.init (n + 1) (fun i -> c.(n - i))

  let default_card_s n =
    let bound = 4 * 3 * n * n in
    let bound = max bound 64 in
    match F.cardinality with Some q -> min bound q | None -> bound

  let sample_vec st ~card_s n = Array.init n (fun _ -> F.sample st ~card_s)

  let generator_ok ~n f seq =
    (* f must be the degree-n monic generator of the whole 2n-sequence *)
    F.equal f.(n) F.one && BM.generates f seq

  let verify_solution (a : M.t) x b =
    let ax = M.matvec a x in
    Array.for_all2 F.equal ax b

  let policy ?deadline_ns ~kind retries =
    Rt.policy ~retries ~max_card_s:(SP.escalation_ceiling kind) ?deadline_ns ()

  (* non-singularity of the preconditioner gates every singularity witness:
     det P is fresh arithmetic, so a Division_by_zero inside it is a fault,
     not a verdict *)
  let witness (p : P.precond) reason =
    match p.Pc.det () with
    | exception Division_by_zero -> Rt.Reject reason
    | dp when F.is_zero dp -> Rt.Reject reason
    | _ -> Rt.Reject_with_witness reason

  (* The one rejection ladder of every dense attempt.  [stage] runs the
     generator stage and returns (payload, f, the 2n-sequence f came
     from); the checks run in order and draw randomness only in [fresh],
     after every earlier check passed. *)
  let classify ?fresh ~p ~n stage =
    match stage () with
    | exception Division_by_zero ->
      (* no degree-n generator: bad luck or a singular Ã *)
      Error (witness p O.Low_degree)
    | exception Linear_complexity_exceeds l ->
      Error
        (Rt.Reject
           (O.Fault
              (Printf.sprintf "sequence linear complexity %d exceeds n = %d" l n)))
    | r, f, seq ->
      if not (generator_ok ~n f seq) then Error (Rt.Reject O.Low_degree)
      else if F.is_zero f.(0) then
        (* true minpoly with zero constant term: Ã singular *)
        Error (witness p O.Zero_constant_term)
      else if match fresh with Some ok -> not (ok r f) | None -> false then
        Error (Rt.Reject (O.Fault "krylov recurrence check failed"))
      else Ok (r, f)

  (* everything an attempt needs besides its random draws *)
  type ctx = {
    n : int;
    mul : M.t -> M.t -> M.t;
    pool : Kp_util.Pool.t option;
    strategy : P.strategy;
    generator : P.generator;
    det_hd : SP.det_routine option;
  }

  let context op ?pool ~strategy ~route (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg (op ^ ": non-square");
    let generator, det_hd =
      match route with
      | Massey_elimination -> (P.Direct massey_generator, None)
      | Toeplitz_charpoly ->
        let charpoly = charpoly_for_field ?pool ~n in
        (P.Toeplitz charpoly, Some (SP.det_hd ~charpoly))
    in
    (* the matrix-multiplication black box, on the pool when one is
       supplied (the PRAM stand-in): bit-identical either way *)
    { n; mul = MD.mul_pooled pool; pool; strategy; generator; det_hd }

  let build ctx st ~card_s kind =
    SP.build ?det_hd:ctx.det_hd ~card_s ~n:ctx.n kind st

  let generate ctx seq =
    P.minimal_generator ~mul:ctx.mul ?pool:ctx.pool ~generator:ctx.generator
      ~strategy:ctx.strategy ~n:ctx.n seq

  (* the 2n Krylov columns of Ã on [v], projected on [u], and the generator *)
  let krylov_stage ctx (a : M.t) p ~u ~v () =
    let a_tilde = P.preconditioned ~mul:ctx.mul a p in
    let cols, seq = P.krylov ~strategy:ctx.strategy ~mul:ctx.mul a_tilde ~u ~v ctx.n in
    (cols, generate ctx seq, seq)

  (* the transient-fault certificate: the full-degree generator is the
     characteristic polynomial of Ã, so it must also generate the
     projection of the same Krylov columns onto a fresh random u′.  A
     corrupted column (or generator run) satisfies no such recurrence and
     fails here whp. *)
  let fresh_projection st ~card_s ~n cols f =
    BM.generates f (P.K.sequence ~u:(sample_vec st ~card_s n) cols)

  let run ~op ?card_s ?deadline_ns ~retries ~precond ctx body =
    let card_s = match card_s with Some s -> s | None -> default_card_s ctx.n in
    let requested = Pc.resolve precond in
    Rt.run ~ns:"solver" ~op ~policy:(policy ?deadline_ns ~kind:requested retries)
      ~card_s
    @@ fun ~attempt ~card_s ->
    body ~kind:(Pc.kind_for_attempt ~retries ~attempt requested) ~card_s

  let solve ?(retries = 10) ?(strategy = P.Doubling) ?card_s ?deadline_ns ?pool
      ?(precond = Pc.default_choice ()) ?(route = Massey_elimination) st
      (a : M.t) b =
    Span.with_ "solver.solve" @@ fun () ->
    let ctx = context "Solver.solve" ?pool ~strategy ~route a in
    if Array.length b <> ctx.n then invalid_arg "Solver.solve: bad rhs";
    run ~op:"solve" ?card_s ?deadline_ns ~retries ~precond ctx
    @@ fun ~kind ~card_s ->
    let p = build ctx st ~card_s kind in
    let u = sample_vec st ~card_s ctx.n in
    match classify ~p ~n:ctx.n (krylov_stage ctx a p ~u ~v:b) with
    | Error reject -> reject
    | Ok (cols, f) ->
      let x = P.recover ?pool:ctx.pool ~n:ctx.n ~f ~p cols in
      if verify_solution a x b then Rt.Accept x
      else Rt.Reject O.Residual_mismatch

  (* one randomized det evaluation; [det] accepts two that agree *)
  let det_eval ctx st ~card_s ~kind (a : M.t) =
    let n = ctx.n in
    let p = build ctx st ~card_s kind in
    let u = sample_vec st ~card_s n in
    let v = sample_vec st ~card_s n in
    match
      classify ~fresh:(fresh_projection st ~card_s ~n) ~p ~n
        (krylov_stage ctx a p ~u ~v)
    with
    | Error reject -> reject
    | Ok (_, f) -> begin
        match (p.Pc.det (), p.Pc.det ()) with
        | exception Division_by_zero -> Rt.Reject O.Singular_preconditioner
        | dhd, dhd' ->
          if not (F.equal dhd dhd') then
            (* det(P) is a deterministic function of the drawn entries:
               disagreement between two fresh evaluations proves a
               transient fault *)
            Rt.Reject (O.Fault "det_hd recomputation mismatch")
          else if F.is_zero dhd then Rt.Reject O.Singular_preconditioner
          else begin
            let det_tilde = if n land 1 = 0 then f.(0) else F.neg f.(0) in
            Rt.Accept (F.div det_tilde dhd)
          end
      end

  (* consistent singularity witnesses: report det = 0 (Monte Carlo on the
     singular side, exact on the non-singular side) *)
  let as_det_result = function
    | Error (O.Singular { report; _ }) -> Ok (F.zero, report)
    | (Ok _ | Error _) as r -> r

  let det ?(retries = 10) ?(strategy = P.Doubling) ?card_s ?deadline_ns ?pool
      ?(precond = Pc.default_choice ()) ?(route = Massey_elimination) st
      (a : M.t) =
    Span.with_ "solver.det" @@ fun () ->
    let ctx = context "Solver.det" ?pool ~strategy ~route a in
    as_det_result
      (run ~op:"det" ?card_s ?deadline_ns ~retries ~precond ctx
       @@ fun ~kind ~card_s ->
       (* Unlike solve, det has no residual to check against the ORIGINAL
          input: a corruption while building Ã is self-consistent — f really
          is the characteristic polynomial of the corrupted Ã′, every
          recurrence certificate passes, and det(Ã′)/det(HD) is wrong.
          det(A) is a deterministic function of A, so we require two fully
          independent randomized evaluations to agree; a transient fault in
          either lands on the true value only with negligible probability. *)
       match det_eval ctx st ~card_s ~kind a with
       | Rt.Accept d1 -> begin
           match det_eval ctx st ~card_s ~kind a with
           | Rt.Accept d2 when F.equal d1 d2 -> Rt.Accept d1
           | Rt.Accept _ -> Rt.Reject (O.Fault "det recomputation mismatch")
           | other -> other
         end
       | other -> other)

  let minimal_polynomial_wiedemann ?card_s st apply ~n =
    let card_s = match card_s with Some s -> s | None -> default_card_s n in
    let u = sample_vec st ~card_s n in
    let b = sample_vec st ~card_s n in
    let apply_into v dst = Array.blit (apply v) 0 dst 0 n in
    let seq = LR.krylov_sequence apply_into ~u ~b (2 * n) in
    BM.P.to_array (BM.minimal_polynomial seq)
end
