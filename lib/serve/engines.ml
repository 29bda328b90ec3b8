module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module Sess = Kp_session.Session.Make (F) (C)
  module M = Sess.M
  module O = Kp_robust.Outcome
  module W = Kp_core.Wiedemann.Make (F)
  module NS = Kp_core.Nullspace.Make (F) (C)
  module S = NS.S
  module BW = Kp_core.Block_wiedemann.Make (F)
  module I = Kp_core.Inverse.Make (F) (C)
  module G = Kp_matrix.Gauss.Make (F)
  module Lv = Kp_core.Las_vegas.Make (F)
  module Retry = Kp_robust.Retry
  module Cnt = Kp_obs.Counter
  module Events = Kp_obs.Events
  module Pc = Kp_precond.Precond

  type rung = Block | Scalar | Dense | Elimination

  let rung_name = function
    | Block -> "block"
    | Scalar -> "scalar"
    | Dense -> "dense"
    | Elimination -> "elimination"

  type t = {
    session : Sess.t option;
    pool : Kp_util.Pool.t option;
    precond : Pc.choice;
    st : Random.State.t;
    b_block : Breaker.t;
    b_scalar : Breaker.t;
  }

  let create ?breaker_threshold ?breaker_cooldown_ns ?now ?session ?pool
      ?precond:(pc_choice = Pc.default_choice ()) st =
    let mk name =
      Breaker.create ?threshold:breaker_threshold
        ?cooldown_ns:breaker_cooldown_ns ?now name
    in
    { session; pool; precond = pc_choice; st;
      b_block = mk "block"; b_scalar = mk "scalar" }

  (* the dense rung stands alone and elimination is deterministic: neither
     has a breaker, both always admit *)
  let breaker t = function
    | Block -> Some t.b_block
    | Scalar -> Some t.b_scalar
    | Dense | Elimination -> None

  let breaker_states t =
    [ ("block", Breaker.state t.b_block); ("scalar", Breaker.state t.b_scalar) ]

  let breaker_codes t =
    [
      ("block", Breaker.state_code t.b_block);
      ("scalar", Breaker.state_code t.b_scalar);
    ]

  let ladder (engine : Protocol.engine) =
    match engine with
    | Protocol.E_block -> [ Block; Scalar; Elimination ]
    | Protocol.E_auto | Protocol.E_scalar -> [ Scalar; Elimination ]
    | Protocol.E_dense -> [ Dense ]

  (* infrastructure failures fall through the ladder and count against the
     rung's breaker; Singular is a certified answer about the input and
     Overloaded never originates inside an engine *)
  let infra = function
    | O.Fault_detected _ | O.Retries_exhausted _ | O.Deadline_exceeded _ ->
      true
    | O.Singular _ | O.Overloaded _ -> false

  (* engines are exception-free by contract, but chaos plans can leak
     [Fault.Injected] from preconditioning that runs outside a retry loop
     (e.g. the Monte Carlo rank search) — keep the ladder total *)
  let guard ~op f =
    match f () with
    | r -> r
    | exception Kp_robust.Fault.Injected msg ->
      Error (O.Fault_detected { op; detail = "injected fault escaped: " ^ msg })
    | exception Division_by_zero ->
      Error (O.Fault_detected { op; detail = "division by zero escaped" })

  let bump rung what =
    Cnt.incr (Cnt.make ("serve.engine." ^ rung_name rung ^ "." ^ what))

  (* a non-dense precond demotes per attempt inside each engine
     ([Precond.kind_for_attempt]); the ladder adds no demotion of its own *)
  let cascade t ~op ~deadline_ns rungs run =
    let admits r =
      match breaker t r with None -> true | Some b -> Breaker.admits b
    in
    let spent () =
      match deadline_ns with
      | Some d -> Int64.equal (Retry.remaining_ns ~deadline_ns:d) 0L
      | None -> false
    in
    (* [last] is the rung that failed before [r] and its error *)
    let rec walk last = function
      | [] ->
        Error
          (match last with
          | Some (_, e) -> e
          | None ->
            O.Fault_detected
              { op; detail = "every engine's breaker is open" })
      | r :: rest ->
        if not (admits r) then begin
          bump r "skip";
          walk last rest
        end
        else if spent () && last <> None then
          (* budget gone: report the failure already in hand rather than
             paying for another engine that must immediately time out *)
          Error (snd (Option.get last))
        else begin
          Option.iter
            (fun (from, e) ->
              Events.emit "serve.engine.fallback"
                [
                  ("op", op);
                  ("from", rung_name from);
                  ("to", rung_name r);
                  ("error", O.error_to_string e);
                ])
            last;
          let ways = 1 + List.length (List.filter admits rest) in
          let dl =
            Option.map
              (fun d -> Retry.split_deadline ~deadline_ns:d ~ways)
              deadline_ns
          in
          match
            guard ~op:(rung_name r ^ "." ^ op) (fun () -> run r ~deadline_ns:dl)
          with
          | Ok v ->
            bump r "ok";
            Option.iter Breaker.record_success (breaker t r);
            Ok (v, rung_name r)
          | Error e when infra e ->
            bump r "fail";
            Option.iter Breaker.record_failure (breaker t r);
            walk (Some (r, e)) rest
          | Error e ->
            (* a certified Singular verdict: the engine worked *)
            bump r "ok";
            Option.iter Breaker.record_success (breaker t r);
            Error e
        end
    in
    walk None rungs

  (* ---- the scalar rung: the shared session, or fresh black boxes ---- *)

  (* without a shared session a solve or det runs a fresh black-box
     engine, cheaper for one question than a session build plus a keyed
     serve; a batch or an inverse amortises a session made for the call *)
  let session_for t =
    match t.session with
    | Some s -> s
    | None -> Sess.create ?pool:t.pool ~precond:t.precond t.st

  (* ---- the dense rung: the paper's Theorem-4 reference ---- *)

  (* the Theorem-6 circuit is traced with the dense H·D wires, and its
     trace outgrows memory fast ([kp inverse --engine dense]: 0.3 GB at
     n = 8, 1.4 GB at n = 16, killed past 7.8 GB at n = 64), so it
     answers small inverses only; a larger one, or one under a non-dense
     precond, is n Theorem-4 solves, whose columns fan out over the pool *)
  let circuit_max_n = 8

  let dense_inverse ?deadline_ns t a =
    if a.M.rows <= circuit_max_n && Pc.resolve t.precond = Pc.Dense_hd then
      I.inverse ?deadline_ns t.st a
    else
      I.inverse_via_solves ?deadline_ns ?pool:t.pool ~precond:t.precond t.st a

  (* ---- the elimination rung: Gaussian elimination, verified ---- *)

  (* a spent deadline is a typed error before any elimination work *)
  let unless_expired deadline_ns f =
    match deadline_ns with
    | Some d when Int64.equal (Retry.remaining_ns ~deadline_ns:d) 0L ->
      Error (O.Deadline_exceeded { elapsed_ns = 0L; report = O.empty_report })
    | _ -> f ()

  (* elimination's singular verdict carries a vector of its nullspace,
     checked like every engine's *)
  let singular ~op a =
    match G.nullspace a with
    | w :: _ when Lv.is_kernel ~apply:(M.matvec a) w ->
      O.Singular { kernel = w; report = O.empty_report }
    | _ -> O.Fault_detected { op; detail = "no checked kernel vector" }

  (* each elimination runs in its own [elimination.<op>] span, so --stats
     attributes the bottom rung's time like every other rung's *)
  let span op f = Kp_obs.Span.with_ ("elimination." ^ op) f

  let elim_solve a b =
    span "solve" @@ fun () ->
    match G.solve a b with
    | None -> Error (singular ~op:"elimination.solve" a)
    | Some x ->
      if Lv.solves (M.matvec a) x b then Ok (x, O.empty_report)
      else
        Error
          (O.Fault_detected
             { op = "elimination.solve"; detail = "residual check failed" })

  let elim_det a =
    span "det" @@ fun () ->
    (* elimination is deterministic, so under clean arithmetic two runs
       agree for free; under injected faults they corrupt independently
       — the two-evaluation discipline at the bottom of the ladder *)
    let d1 = G.det a and d2 = G.det a in
    if F.equal d1 d2 then Ok (d1, O.empty_report)
    else
      Error
        (O.Fault_detected
           { op = "elimination.det"; detail = "two eliminations disagree" })

  let elim_inverse a =
    span "inverse" @@ fun () ->
    match G.inverse a with
    | None -> Error (singular ~op:"elimination.inverse" a)
    | Some inv ->
      if G.M.equal (M.mul a inv) (M.identity a.M.rows) then
        Ok (inv, O.empty_report)
      else
        Error
          (O.Fault_detected
             { op = "elimination.inverse"; detail = "A * A^-1 <> I" })

  (* ---- operations ---- *)

  let with_name res =
    match res with
    | Ok ((v, rep), name) -> Ok (v, name, rep)
    | Error e -> Error e

  (* a batch is all-or-nothing: the first failed right-hand side fails it *)
  let each_rhs bs solve =
    let k = Array.length bs in
    let out = Array.make k [||] in
    let rec go i rep =
      if i = k then Ok (out, rep)
      else
        match solve i bs.(i) with
        | Ok (x, r) ->
          out.(i) <- x;
          go (i + 1) (O.merge_reports rep r)
        | Error e -> Error e
    in
    go 0 O.empty_report

  let solve ?key ?deadline_ns ?block_factor ~engine t a b =
    with_name
    @@ cascade t ~op:"solve" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ->
    let precond = t.precond in
    match rung with
    | Block ->
      BW.solve ?deadline_ns ?block_factor ~precond t.st (W.Bb.of_dense a) b
    | Scalar -> (
      match t.session with
      | Some s -> Sess.solve ?key ?deadline_ns s a b
      | None ->
        W.solve_preconditioned ?deadline_ns ~precond t.st (W.Bb.of_dense a) b)
    | Dense -> S.solve ?deadline_ns ?pool:t.pool ~precond t.st a b
    | Elimination -> unless_expired deadline_ns (fun () -> elim_solve a b)

  let solve_batch ?key ?deadline_ns ?block_factor ~engine t a bs =
    with_name
    @@ cascade t ~op:"batch" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ->
    let precond = t.precond in
    match rung with
    | Block ->
      BW.solve_batch ?deadline_ns ?block_factor ~precond t.st
        (W.Bb.of_dense a) bs
    | Scalar ->
      let results = Sess.solve_many ?key ?deadline_ns (session_for t) a bs in
      each_rhs bs (fun i _ -> results.(i))
    | Dense ->
      each_rhs bs (fun _ b ->
          S.solve ?deadline_ns ?pool:t.pool ~precond t.st a b)
    | Elimination ->
      unless_expired deadline_ns (fun () ->
          each_rhs bs (fun _ b -> elim_solve a b))

  let det ?key ?deadline_ns ?block_factor ~engine t a =
    with_name
    @@ cascade t ~op:"det" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ->
    let precond = t.precond in
    match rung with
    | Block ->
      BW.det ?deadline_ns ?block_factor ~precond t.st (W.Bb.of_dense a)
    | Scalar -> (
      match t.session with
      | Some s -> Sess.det ?key ?deadline_ns s a
      | None -> W.det ?deadline_ns ~precond t.st (W.Bb.of_dense a))
    | Dense -> S.det ?deadline_ns ?pool:t.pool ~precond t.st a
    | Elimination -> unless_expired deadline_ns (fun () -> elim_det a)

  let inverse ?key ?deadline_ns ~engine t a =
    let rungs =
      (* no block inverse route: start that ladder at the scalar rung *)
      List.filter (fun r -> r <> Block) (ladder engine)
    in
    with_name
    @@ cascade t ~op:"inverse" ~deadline_ns rungs
    @@ fun rung ~deadline_ns ->
    match rung with
    | Block (* filtered out above *) | Scalar ->
      Sess.inverse ?key ?deadline_ns (session_for t) a
    | Dense -> dense_inverse ?deadline_ns t a
    | Elimination -> unless_expired deadline_ns (fun () -> elim_inverse a)

  let rank ?deadline_ns ~engine t a =
    let rungs =
      (* no black-box rank route yet, and the block engine has none: a
         rank ladder is dense alone or elimination *)
      List.filter (fun r -> r <> Scalar && r <> Block) (ladder engine)
    in
    cascade t ~op:"rank" ~deadline_ns rungs
    @@ fun rung ~deadline_ns ->
    unless_expired deadline_ns @@ fun () ->
    match rung with
    | Dense ->
      (* n − |W| for a checked kernel basis W: both bounds proved *)
      Result.map
        (fun w -> a.M.rows - List.length w)
        (NS.nullspace ?deadline_ns ~precond:t.precond t.st a)
    | Block | Scalar (* filtered out above *) | Elimination ->
      Ok (span "rank" (fun () -> G.rank a))
end
