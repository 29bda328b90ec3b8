module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module Sess = Kp_session.Session.Make (F) (C)
  module M = Sess.M
  module O = Kp_robust.Outcome
  module BW = Kp_core.Block_wiedemann.Make (F) (C)
  module R = Kp_core.Rank.Make (F) (C)
  module G = Kp_matrix.Gauss.Make (F)
  module Retry = Kp_robust.Retry
  module Cnt = Kp_obs.Counter
  module Events = Kp_obs.Events
  module Pc = Kp_precond.Precond

  let c_precond_demote = Cnt.make "serve.precond.demote"

  type rung = Block | Scalar | Dense

  let rung_name = function
    | Block -> "block"
    | Scalar -> "scalar"
    | Dense -> "dense"

  type t = {
    session : Sess.t;
    pool : Kp_util.Pool.t option;
    precond : Pc.choice;
    st : Random.State.t;
    b_block : Breaker.t;
    b_scalar : Breaker.t;
  }

  let create ?breaker_threshold ?breaker_cooldown_ns ?now ~session ?pool
      ?precond:(pc_choice = Pc.default_choice ()) st =
    let mk name =
      Breaker.create ?threshold:breaker_threshold
        ?cooldown_ns:breaker_cooldown_ns ?now name
    in
    { session; pool; precond = pc_choice; st;
      b_block = mk "block"; b_scalar = mk "scalar" }

  (* the dense rung is deterministic elimination: no breaker, always admits *)
  let breaker t = function
    | Block -> Some t.b_block
    | Scalar -> Some t.b_scalar
    | Dense -> None

  let breaker_states t =
    [ ("block", Breaker.state t.b_block); ("scalar", Breaker.state t.b_scalar) ]

  let breaker_codes t =
    [
      ("block", Breaker.state_code t.b_block);
      ("scalar", Breaker.state_code t.b_scalar);
    ]

  let ladder (engine : Protocol.engine) =
    match engine with
    | Protocol.E_block -> [ Block; Scalar; Dense ]
    | Protocol.E_auto | Protocol.E_scalar -> [ Scalar; Dense ]
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

  (* preconditioner demotion joins the ladder: a non-dense precond that
     fails a rung for infrastructure reasons gets one dense retry on the
     same rung before the walk falls through — counted in
     [serve.precond.demote] and visible as a [serve.precond.demote]
     event.  Rungs driven by the shared session carry the session's own
     configured precond (with its internal per-attempt demotion), so the
     dense retry there re-runs the rung unchanged and is skipped. *)
  let cascade t ~op ~deadline_ns rungs run =
    let admits r =
      match breaker t r with None -> true | Some b -> Breaker.admits b
    in
    let spent () =
      match deadline_ns with
      | Some d -> Int64.equal (Retry.remaining_ns ~deadline_ns:d) 0L
      | None -> false
    in
    let demotable r =
      (match r with Block -> true | Scalar | Dense -> false)
      && Pc.resolve t.precond <> Pc.Dense_hd
    in
    let rec walk last_err = function
      | [] ->
        Error
          (match last_err with
          | Some e -> e
          | None ->
            O.Fault_detected
              { op; detail = "every engine's breaker is open" })
      | r :: rest ->
        if not (admits r) then begin
          bump r "skip";
          walk last_err rest
        end
        else if spent () && last_err <> None then
          (* budget gone: report the failure already in hand rather than
             paying for another engine that must immediately time out *)
          Error (Option.get last_err)
        else begin
          let ways = 1 + List.length (List.filter admits rest) in
          let dl =
            Option.map
              (fun d -> Retry.split_deadline ~deadline_ns:d ~ways)
              deadline_ns
          in
          let attempt precond =
            guard ~op:(rung_name r ^ "." ^ op) (fun () ->
                run r ~deadline_ns:dl ~precond)
          in
          let fall e =
            bump r "fail";
            Option.iter Breaker.record_failure (breaker t r);
            if rest <> [] then
              Events.emit "serve.engine.fallback"
                [
                  ("op", op);
                  ("from", rung_name r);
                  ("error", O.error_to_string e);
                ];
            walk (Some e) rest
          in
          match attempt t.precond with
          | Ok v ->
            bump r "ok";
            Option.iter Breaker.record_success (breaker t r);
            Ok (v, rung_name r)
          | Error e when infra e && demotable r -> begin
            Cnt.incr c_precond_demote;
            Events.emit "serve.precond.demote"
              [
                ("op", op);
                ("rung", rung_name r);
                ("from", Pc.kind_name (Pc.resolve t.precond));
                ("error", O.error_to_string e);
              ];
            match attempt (Pc.Forced Pc.Dense_hd) with
            | Ok v ->
              bump r "ok";
              Option.iter Breaker.record_success (breaker t r);
              Ok (v, rung_name r)
            | Error e' when infra e' -> fall e'
            | Error e' ->
              bump r "ok";
              Option.iter Breaker.record_success (breaker t r);
              Error e'
          end
          | Error e when infra e -> fall e
          | Error e ->
            (* a certified Singular verdict: the engine worked *)
            bump r "ok";
            Option.iter Breaker.record_success (breaker t r);
            Error e
        end
    in
    walk None rungs

  (* ---- the dense rung: Gaussian elimination, verified ---- *)

  let dense_expired deadline_ns =
    match deadline_ns with
    | Some d when Int64.equal (Retry.remaining_ns ~deadline_ns:d) 0L ->
      Some
        (O.Deadline_exceeded { elapsed_ns = 0L; report = O.empty_report })
    | _ -> None

  let singular = O.Singular { witnesses = 1; report = O.empty_report }

  let dense_solve ~deadline_ns a b =
    match dense_expired deadline_ns with
    | Some e -> Error e
    | None -> (
      match G.solve a b with
      | None -> Error singular
      | Some x ->
        if BW.verify_solution a x b then Ok (x, O.empty_report)
        else
          Error
            (O.Fault_detected
               { op = "dense.solve"; detail = "residual check failed" }))

  let dense_batch ~deadline_ns a bs =
    match dense_expired deadline_ns with
    | Some e -> Error e
    | None ->
      let n = Array.length bs in
      let out = Array.make n [||] in
      let rec go i =
        if i = n then Ok (out, O.empty_report)
        else
          match dense_solve ~deadline_ns:None a bs.(i) with
          | Ok (x, _) ->
            out.(i) <- x;
            go (i + 1)
          | Error e -> Error e
      in
      go 0

  let dense_det ~deadline_ns a =
    match dense_expired deadline_ns with
    | Some e -> Error e
    | None ->
      (* elimination is deterministic, so under clean arithmetic two runs
         agree for free; under injected faults they corrupt independently
         — the PR-2 two-evaluation discipline at the bottom of the ladder *)
      let d1 = G.det a and d2 = G.det a in
      if F.equal d1 d2 then Ok (d1, O.empty_report)
      else
        Error
          (O.Fault_detected
             { op = "dense.det"; detail = "two eliminations disagree" })

  let dense_inverse ~deadline_ns a =
    match dense_expired deadline_ns with
    | Some e -> Error e
    | None -> (
      match G.inverse a with
      | None -> Error singular
      | Some inv ->
        if G.M.equal (M.mul a inv) (M.identity a.M.rows) then
          Ok (inv, O.empty_report)
        else
          Error
            (O.Fault_detected
               { op = "dense.inverse"; detail = "A * A^-1 <> I" }))

  (* ---- operations ---- *)

  let with_name res =
    match res with
    | Ok ((v, rep), name) -> Ok (v, name, rep)
    | Error e -> Error e

  let solve ?key ?deadline_ns ?block_factor ~engine t a b =
    with_name
    @@ cascade t ~op:"solve" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ~precond ->
    match rung with
    | Block ->
      BW.solve ?deadline_ns ?pool:t.pool ?block_factor ~precond t.st a b
    | Scalar -> Sess.solve ?key ?deadline_ns t.session a b
    | Dense -> dense_solve ~deadline_ns a b

  let merge_all =
    Array.fold_left (fun acc r -> O.merge_reports acc r) O.empty_report

  let scalar_batch ?key ?deadline_ns t a bs =
    let results = Sess.solve_many ?key ?deadline_ns t.session a bs in
    let n = Array.length results in
    let out = Array.make n [||] and reps = Array.make n O.empty_report in
    let rec go i =
      if i = n then Ok (out, merge_all reps)
      else
        match results.(i) with
        | Ok (x, rep) ->
          out.(i) <- x;
          reps.(i) <- rep;
          go (i + 1)
        | Error e -> Error e
    in
    go 0

  let solve_batch ?key ?deadline_ns ?block_factor ~engine t a bs =
    with_name
    @@ cascade t ~op:"batch" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ~precond ->
    match rung with
    | Block ->
      BW.solve_batch ?deadline_ns ?pool:t.pool ?block_factor ~precond t.st a
        bs
    | Scalar -> scalar_batch ?key ?deadline_ns t a bs
    | Dense -> dense_batch ~deadline_ns a bs

  let det ?key ?deadline_ns ?block_factor ~engine t a =
    with_name
    @@ cascade t ~op:"det" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ~precond ->
    match rung with
    | Block ->
      BW.det ?deadline_ns ?pool:t.pool ?block_factor ~precond t.st a
    | Scalar -> Sess.det ?key ?deadline_ns t.session a
    | Dense -> dense_det ~deadline_ns a

  let inverse ?key ?deadline_ns ~engine t a =
    let rungs =
      (* no block inverse route: start that ladder at the scalar rung *)
      match ladder engine with Block :: rest -> rest | l -> l
    in
    with_name
    @@ cascade t ~op:"inverse" ~deadline_ns rungs
    @@ fun rung ~deadline_ns ~precond:_ ->
    match rung with
    | Block -> assert false
    | Scalar -> Sess.inverse ?key ?deadline_ns t.session a
    | Dense -> dense_inverse ~deadline_ns a

  let rank ?deadline_ns ?block_factor ~engine t a =
    cascade t ~op:"rank" ~deadline_ns (ladder engine)
    @@ fun rung ~deadline_ns ~precond ->
    match dense_expired deadline_ns with
    | Some e -> Error e
    | None -> (
      match rung with
      | Block ->
        BW.rank ?deadline_ns ?pool:t.pool ?block_factor ~precond t.st a
      | Scalar -> R.rank ?deadline_ns ~precond t.st a
      | Dense -> Ok (G.rank a))
end
