module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module P = Pipeline.Make (F) (C)
  module M = P.M
  module MD = Kp_matrix.Dense.Make (F)
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module Pc = Kp_precond.Precond
  module SP = Kp_precond.Precond.Make (F) (C)

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span

  let charpoly_for_field ~n =
    if F.characteristic = 0 || F.characteristic > n then P.charpoly_leverrier
    else P.charpoly_chistov

  type route = Massey_elimination | Toeplitz_charpoly

  exception Linear_complexity_exceeds of int
  exception Short_sequence of F.t array

  (* Berlekamp–Massey on the 2n-term sequence, in the Toeplitz route's
     output shape: the monic degree-n generator, low-to-high.  Linear
     complexity L < n means the n×n Hankel of the sequence is singular.
     L > n is impossible for {u·Ãⁱ·v} with Ã n×n, so only a corrupted
     sequence gets here. *)
  let massey_generator ~n seq =
    let c = BM.connection_polynomial seq in
    let l = Array.length c - 1 in
    if l < n then
      raise (Short_sequence (Array.init (l + 1) (fun i -> c.(l - i))))
    else if l > n then raise (Linear_complexity_exceeds l)
    else Array.init (n + 1) (fun i -> c.(n - i))

  module Lv = Las_vegas.Make (F)

  let generator_ok ~n f seq =
    (* f must be the degree-n monic generator of the whole 2n-sequence *)
    F.equal f.(n) F.one && BM.generates f seq

  (* The one rejection ladder of every dense attempt.  [stage] runs the
     Krylov stage and returns (the columns Ãⁱ·v, the 2n-sequence);
     [generate] maps the sequence to its degree-n generator.  The checks
     run in order and draw randomness only in [fresh], after every earlier
     check passed. *)
  let classify ?fresh ~apply ~p ~n ~generate stage =
    let cols, seq = stage () in
    (* a generator g with g(0) = 0: w = P·Σᵢ gᵢ·Ãⁱ⁻¹·v, checked against A *)
    let kernel g =
      let d = Array.length g - 1 in
      let head = M.init n d (fun i j -> M.get cols i j) in
      let w = p.Pc.apply (P.K.combination head (Array.sub g 1 d)) in
      Lv.singular ~apply w
    in
    (* no degree-n generator: bad luck, unless the sequence's own minimal
       generator has λ | g *)
    let short g =
      Error
        (if Array.length g > 1 && F.is_zero g.(0) then kernel g
         else Rt.Reject O.Low_degree)
    in
    match generate seq with
    | exception Short_sequence g -> short g
    | exception Division_by_zero ->
      (* the Toeplitz route's singular Hankel: Berlekamp–Massey on the
         sequence in hand draws nothing *)
      short (BM.P.to_array (BM.minimal_polynomial seq))
    | exception Linear_complexity_exceeds l ->
      Error
        (Rt.Reject
           (O.Fault
              (Printf.sprintf "sequence linear complexity %d exceeds n = %d" l n)))
    | f ->
      if not (generator_ok ~n f seq) then Error (Rt.Reject O.Low_degree)
      else if F.is_zero f.(0) then Error (kernel f)
      else if match fresh with Some ok -> not (ok cols f) | None -> false then
        Error (Rt.Reject (O.Fault "krylov recurrence check failed"))
      else Ok (cols, f)

  (* everything an attempt needs besides its random draws *)
  type ctx = {
    n : int;
    mul : M.t -> M.t -> M.t;
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
        let charpoly = charpoly_for_field ~n in
        (P.Toeplitz charpoly, Some (SP.det_hd ~charpoly))
    in
    (* the matrix-multiplication black box, on the pool when one is
       supplied (the PRAM stand-in): bit-identical either way *)
    let mul = match pool with None -> MD.mul | Some p -> MD.mul_parallel p in
    { n; mul; strategy; generator; det_hd }

  let build ctx st ~card_s kind =
    SP.build ?det_hd:ctx.det_hd ~card_s ~n:ctx.n kind st

  let generate ctx seq =
    P.minimal_generator ~mul:ctx.mul ~generator:ctx.generator
      ~strategy:ctx.strategy ~n:ctx.n seq

  (* the 2n Krylov columns of Ã on [v] and their projection on [u] *)
  let krylov_stage ctx (a : M.t) p ~u ~v () =
    let a_tilde = P.preconditioned ~mul:ctx.mul a p in
    P.krylov ~strategy:ctx.strategy ~mul:ctx.mul a_tilde ~u ~v ctx.n

  (* the transient-fault certificate: the full-degree generator is the
     characteristic polynomial of Ã, so it must also generate the
     projection of the same Krylov columns onto a fresh random u′.  A
     corrupted column (or generator run) satisfies no such recurrence and
     fails here whp. *)
  let fresh_projection st ~card_s ~n cols f =
    BM.generates f (P.K.sequence ~u:(Lv.sample_vec st ~card_s n) cols)

  let solve ?retries ?(strategy = P.Doubling) ?card_s ?deadline_ns ?pool
      ?(precond = Pc.default_choice ()) ?(route = Massey_elimination) st
      (a : M.t) b =
    Span.with_ "solver.solve" @@ fun () ->
    let ctx = context "Solver.solve" ?pool ~strategy ~route a in
    let n = ctx.n in
    if Array.length b <> n then invalid_arg "Solver.solve: bad rhs";
    Lv.run ~ns:"solver" ~op:"solve" ?retries ?card_s ?deadline_ns
      ~kind:(Pc.resolve precond) ~n
    @@ fun ~attempt:_ ~kind ~card_s ->
    let p = build ctx st ~card_s kind in
    let u = Lv.sample_vec st ~card_s n in
    match
      classify ~apply:(M.matvec a) ~p ~n ~generate:(generate ctx)
        (krylov_stage ctx a p ~u ~v:b)
    with
    | Error reject -> reject
    | Ok (cols, f) ->
      Lv.verified (M.matvec a) (P.recover ~n ~f ~p cols) b

  (* one randomized det evaluation: det A = (−1)ⁿ·f(0)/det P.  Unlike
     solve, det has no residual to check against the original input: a
     corruption while building Ã is self-consistent, so {!Las_vegas}'s
     [det] runs two of these per attempt and requires them to agree *)
  let det_eval ctx st ~card_s ~kind (a : M.t) =
    let n = ctx.n in
    let p = build ctx st ~card_s kind in
    let u = Lv.sample_vec st ~card_s n in
    let v = Lv.sample_vec st ~card_s n in
    match
      classify ~fresh:(fresh_projection st ~card_s ~n) ~apply:(M.matvec a) ~p
        ~n ~generate:(generate ctx) (krylov_stage ctx a p ~u ~v)
    with
    | Error reject -> reject
    | Ok (_, f) -> (
      match Lv.det_p ~twice:true p with
      | Error reason -> Rt.Reject reason
      | Ok dp ->
        let det_tilde = if n land 1 = 0 then f.(0) else F.neg f.(0) in
        Rt.Accept (F.div det_tilde dp))

  let det ?retries ?(strategy = P.Doubling) ?card_s ?deadline_ns ?pool
      ?(precond = Pc.default_choice ()) ?(route = Massey_elimination) st
      (a : M.t) =
    Span.with_ "solver.det" @@ fun () ->
    let ctx = context "Solver.det" ?pool ~strategy ~route a in
    Lv.det ~ns:"solver" ?retries ?card_s ?deadline_ns ~kind:(Pc.resolve precond)
      ~n:ctx.n
    @@ fun ~attempt:_ ~kind ~card_s () -> det_eval ctx st ~card_s ~kind a
end
