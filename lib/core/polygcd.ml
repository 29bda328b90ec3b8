module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module P = Kp_poly.Dense.Make (F)
  module Sy = Kp_structured.Sylvester.Make (F)
  module S = Solver.Make (F) (C)
  module R = Rank.Make (F) (C)
  module G = Kp_matrix.Gauss.Make (F)
  module M = S.M
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Lv = Las_vegas.Make (F)

  let resultant ?card_s st f g =
    if P.is_zero f || P.is_zero g then Ok F.zero
    else if P.degree f = 0 || P.degree g = 0 then Ok (Sy.resultant_gauss f g)
    else Result.map fst (S.det ?card_s st (Sy.matrix f g))

  module W = Wiedemann.Make (F)

  let resultant_blackbox ?card_s st f g =
    if P.is_zero f || P.is_zero g then Ok F.zero
    else if P.degree f = 0 || P.degree g = 0 then Ok (Sy.resultant_gauss f g)
    else begin
      let bb = W.Bb.of_fun (P.degree f + P.degree g) (Sy.apply f g) in
      Result.map fst (W.det ?card_s st bb)
    end

  let gcd_degree ?card_s ?deadline_ns st f g =
    if P.is_zero f then Ok (P.degree g)
    else if P.is_zero g then Ok (P.degree f)
    else if P.degree f = 0 || P.degree g = 0 then Ok 0
    else
      Result.map
        (fun r -> P.degree f + P.degree g - r)
        (R.rank ?card_s ?deadline_ns st (Sy.matrix f g))

  let gcd ?(retries = 6) ?card_s ?deadline_ns st f g =
    if P.is_zero f then Ok (P.monic g)
    else if P.is_zero g then Ok (P.monic f)
    else if P.degree f = 0 || P.degree g = 0 then Ok P.one
    else begin
      let m = P.degree f and n = P.degree g in
      Result.map fst
      @@ Lv.run ~ns:"polygcd" ~op:"gcd" ~retries ?card_s ?deadline_ns
           ~n:(m + n)
      @@ fun ~attempt:_ ~kind:_ ~card_s ->
      match gcd_degree ~card_s ?deadline_ns st f g with
      (* as in {!Nullspace}: an exhausted minor is a redraw, a spent
         deadline or a detected fault ends the call *)
      | Error ((O.Deadline_exceeded _ | O.Fault_detected _) as e) ->
        Rt.Error_now e
      | Error _ -> Rt.Reject O.Rank_mismatch
      | Ok 0 -> Rt.Accept P.one
      | Ok d ->
        (* nullspace of the restricted system is spanned by (-g/h, f/h) *)
        let sys = Sy.cofactor_matrix f g ~deg_gcd:d in
        match G.nullspace sys with
        | [ w ] ->
          let cols_u = n - d + 1 in
          let v = P.of_coeffs (Array.sub w cols_u (m - d + 1)) in
          (* v = c·(f/h): h = f / v when the division is exact *)
          if P.is_zero v then Rt.Reject O.Low_degree
          else begin
            let h, r = P.divmod f v in
            if P.is_zero r && P.degree h = d
               && P.is_zero (P.rem g h) && P.is_zero (P.rem f h)
            then Rt.Accept (P.monic h)
            else Rt.Reject O.Residual_mismatch
          end
        | _ ->
          (* wrong rank guess: nullity must be exactly 1 *)
          Rt.Reject O.Rank_mismatch
    end

  let bezout ?card_s ?deadline_ns st f g =
    match gcd ?card_s ?deadline_ns st f g with
    | Error e -> Error e
    | Ok h ->
      let m = P.degree f and n = P.degree g and d = P.degree h in
      if m < 0 || n < 0 then
        Error
          (O.Fault_detected
             { op = "polygcd.bezout"; detail = "zero polynomial after gcd" })
      else if d = m then Ok (h, P.constant (F.inv (P.leading f)), P.zero)
      else if d = n then Ok (h, P.zero, P.constant (F.inv (P.leading g)))
      else begin
        (* unknowns: u (deg < n-d, n-d coeffs) then v (deg < m-d, m-d);
           equations: coefficient r of u·f + v·g = h for 0 <= r <= m+n-d-1 *)
        let cols_u = n - d and cols_v = m - d in
        let rows = m + n - d in
        let sys =
          M.init rows (cols_u + cols_v) (fun r c ->
              if c < cols_u then P.coeff f (r - c)
              else P.coeff g (r - (c - cols_u)))
        in
        let rhs = Array.init rows (fun r -> P.coeff h r) in
        match G.solve_general sys rhs with
        | None ->
          (* h = gcd certified divides both f and g, so the Bezout system
             is consistent: reaching this is a deterministic-invariant
             violation, not bad randomness *)
          Error
            (O.Fault_detected
               { op = "polygcd.bezout"; detail = "Bezout system inconsistent" })
        | Some w ->
          let u = P.of_coeffs (Array.sub w 0 cols_u) in
          let v = P.of_coeffs (Array.sub w cols_u cols_v) in
          if P.equal (P.add (P.mul u f) (P.mul v g)) h then Ok (h, u, v)
          else
            Error
              (O.Fault_detected
                 {
                   op = "polygcd.bezout";
                   detail = "u·f + v·g ≠ h after elimination";
                 })
      end
end
