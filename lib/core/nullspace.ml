module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module R = Rank.Make (F) (C)
  module S = R.S
  module M = S.M
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Lv = Las_vegas.Make (F)

  (* solve Âr · z = w for several right-hand sides *)
  let block_solves ?card_s ?deadline_ns ?precond st (ar : M.t) rhss =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | w :: rest -> (
        match S.solve ?card_s ?deadline_ns ?precond st ar w with
        | Ok (z, _) -> go (z :: acc) rest
        | Error e -> Error e)
    in
    go [] rhss

  (* Â = U·A·V and its rank by {!Rank.search}.  A minor whose det ran out
     of budget says nothing about the rank, so the attempt is redrawn; a
     spent deadline or a detected fault ends the call *)
  let decompose ~card_s ?deadline_ns ?precond st (a : M.t) =
    let pre = R.precondition st ~card_s a in
    match
      R.search pre.R.a_hat
        ~det:(S.det ~card_s ~retries:6 ?deadline_ns ?precond st)
    with
    | Ok r -> Ok (pre, r)
    | Error ((O.Deadline_exceeded _ | O.Fault_detected _) as e) ->
      Error (Rt.Error_now e)
    | Error _ -> Error (Rt.Reject O.Rank_mismatch)

  let nullspace ?(retries = 4) ?card_s ?deadline_ns ?precond st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Nullspace.nullspace: non-square";
    Result.map fst
    @@ Lv.run ~ns:"nullspace" ~op:"nullspace" ~retries ?card_s ?deadline_ns ~n
    @@ fun ~attempt:_ ~kind:_ ~card_s ->
    match decompose ~card_s ?deadline_ns ?precond st a with
    | Error stop -> stop
    | Ok (pre, r) ->
    if r = n then Rt.Accept []
    else if r = 0 then
      if Array.for_all F.is_zero a.M.data then
        (* A = 0: the standard basis spans the nullspace *)
        Rt.Accept
          (List.init n (fun j ->
               Array.init n (fun i -> if i = j then F.one else F.zero)))
      else
        (* rank estimate certainly too low: unlucky preconditioner *)
        Rt.Reject O.Rank_mismatch
    else begin
      let a_hat = pre.R.a_hat in
      let ar = M.init r r (fun i j -> M.get a_hat i j) in
      let b_cols =
        List.init (n - r) (fun c -> Array.init r (fun i -> M.get a_hat i (r + c)))
      in
      match block_solves ~card_s ?deadline_ns ?precond st ar b_cols with
      | Error (O.Singular _) ->
        (* the leading r×r block tested non-singular but a solve certified it
           singular: the rank profile was not generic this draw *)
        Rt.Reject O.Rank_mismatch
      | Error (O.Deadline_exceeded _ as e) | Error (O.Fault_detected _ as e) ->
        Rt.Error_now e
      | Error _ -> Rt.Reject O.Residual_mismatch
      | Ok zs ->
        let basis =
          List.mapi
            (fun c z ->
              (* w = [-z ; e_c] in the V-coordinates *)
              let w =
                Array.init n (fun i ->
                    if i < r then F.neg z.(i)
                    else if i = r + c then F.one
                    else F.zero)
              in
              M.matvec pre.R.v_mat w)
            zs
        in
        (* verify: each basis vector is annihilated by A *)
        if
          List.for_all
            (fun v -> Array.for_all F.is_zero (M.matvec a v))
            basis
        then Rt.Accept basis
        else Rt.Reject O.Residual_mismatch
    end

  let solve_singular ?(retries = 4) ?card_s ?deadline_ns ?precond st (a : M.t)
      b =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Nullspace.solve_singular: non-square";
    Result.map fst
    @@ Lv.run ~ns:"nullspace" ~op:"solve_singular" ~retries ?card_s
         ?deadline_ns ~n
    @@ fun ~attempt:_ ~kind:_ ~card_s ->
    match decompose ~card_s ?deadline_ns ?precond st a with
    | Error stop -> stop
    | Ok (pre, r) ->
    if r = n then
      match S.solve ~card_s ?deadline_ns ?precond st a b with
      | Ok (x, _) -> Rt.Accept (Some x)
      | Error (O.Singular _) -> Rt.Reject O.Rank_mismatch
      | Error (O.Deadline_exceeded _ as e) | Error (O.Fault_detected _ as e) ->
        Rt.Error_now e
      | Error _ -> Rt.Reject O.Residual_mismatch
    else begin
      let a_hat = pre.R.a_hat in
      let ub = M.matvec pre.R.u_mat b in
      if r = 0 then
        if Array.for_all F.is_zero a.M.data then
          if Array.for_all F.is_zero ub then Rt.Accept (Some (Array.make n F.zero))
          else Rt.Accept None
        else Rt.Reject O.Rank_mismatch
      else begin
        let ar = M.init r r (fun i j -> M.get a_hat i j) in
        let top = Array.sub ub 0 r in
        match S.solve ~card_s ?deadline_ns ?precond st ar top with
        | Error (O.Singular _) -> Rt.Reject O.Rank_mismatch
        | Error (O.Deadline_exceeded _ as e) | Error (O.Fault_detected _ as e) ->
          Rt.Error_now e
        | Error _ -> Rt.Reject O.Residual_mismatch
        | Ok (z, _) ->
          let y = Array.init n (fun i -> if i < r then z.(i) else F.zero) in
          let x = M.matvec pre.R.v_mat y in
          if Lv.solves (M.matvec a) x b then Rt.Accept (Some x)
          else
            (* the top block solved but the full residual is non-zero: the
               bottom equations are inconsistent (if the rank estimate was
               right — Monte Carlo, as before the refactor) *)
            Rt.Accept None
      end
    end
end
