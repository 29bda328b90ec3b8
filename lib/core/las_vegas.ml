module Make (F : Kp_field.Field_intf.FIELD) = struct
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Pc = Kp_precond.Precond

  let card_s n =
    let bound = max (12 * n * n) 64 in
    match F.cardinality with Some q -> min bound q | None -> bound

  let sample_vec st ~card_s n = Array.init n (fun _ -> F.sample st ~card_s)

  let run ~ns ~op ?(retries = 10) ?card_s:s ?deadline_ns ?(kind = Pc.Dense_hd)
      ~n body =
    let max_card_s =
      Pc.escalation_ceiling ~cardinality:F.cardinality
        ~characteristic:F.characteristic kind
    in
    let policy = Rt.policy ~retries ~max_card_s ?deadline_ns () in
    Rt.run ~ns ~op ~policy ~card_s:(Option.value s ~default:(card_s n))
    @@ fun ~attempt ~card_s ->
    body ~attempt ~kind:(Pc.kind_for_attempt ~retries ~attempt kind) ~card_s

  let det ~ns ?retries ?card_s ?deadline_ns ?kind ~n body =
    match
      run ~ns ~op:"det" ?retries ?card_s ?deadline_ns ?kind ~n
      @@ fun ~attempt ~kind ~card_s ->
      let eval = body ~attempt ~kind ~card_s in
      match eval () with
      | Rt.Accept d1 -> begin
          match eval () with
          | Rt.Accept d2 when F.equal d1 d2 -> Rt.Accept d1
          | Rt.Accept _ -> Rt.Reject (O.Fault "det recomputation mismatch")
          | other -> other
        end
      | other -> other
    with
    | Error (O.Singular { report; _ }) -> Ok (F.zero, report)
    | (Ok _ | Error _) as r -> r

  let det_p ~twice (p : F.t Pc.t) =
    match p.Pc.det () with
    | exception Division_by_zero -> Error O.Singular_preconditioner
    | d when F.is_zero d -> Error O.Singular_preconditioner
    | d when twice && not (F.equal d (p.Pc.det ())) ->
      Error (O.Fault "det P recomputation mismatch")
    | d -> Ok d

  let is_kernel ~apply w =
    (not (Array.for_all F.is_zero w)) && Array.for_all F.is_zero (apply w)

  let singular ~apply w =
    if is_kernel ~apply w then
      Rt.Error_now (O.Singular { kernel = w; report = O.empty_report })
    else Rt.Reject O.Zero_constant_term

  let solves apply x b = Array.for_all2 F.equal (apply x) b

  let verified apply x b =
    if solves apply x b then Rt.Accept x else Rt.Reject O.Residual_mismatch
end
