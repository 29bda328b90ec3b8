module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module S = Solver.Make (F) (C)
  module M = S.M
  module MD = Kp_matrix.Dense.Make (F)

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;
  }

  let default_card_s n =
    let bound = max (4 * 3 * n * n) 64 in
    match F.cardinality with Some q -> min bound q | None -> bound

  let precondition st ?card_s (a : M.t) =
    let n = a.M.rows in
    let card_s = match card_s with Some s -> s | None -> default_card_s n in
    (* unit-triangular products are always non-singular; their random
       entries come from the caller's sample set *)
    let u_mat = MD.sample_nonsingular st ~card_s n in
    let v_mat = MD.sample_nonsingular st ~card_s n in
    { u_mat; v_mat; a_hat = M.mul u_mat (M.mul a v_mat) }

  let leading sub i =
    M.init i i (fun r c -> M.get sub r c)

  let leading_minor_nonsingular st ?card_s ?precond ?route (a_hat : M.t) i =
    if i = 0 then true
    else begin
      let sub = leading a_hat i in
      match S.det ?card_s ~retries:6 ?precond ?route st sub with
      | Ok (d, _) -> not (F.is_zero d)
      | Error _ -> false
    end

  let rank ?card_s ?precond ?route st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Rank.rank: non-square (embed first)";
    let card_s = match card_s with Some s -> s | None -> default_card_s n in
    let { a_hat; _ } = precondition st ~card_s a in
    (* binary search: largest i with non-singular leading i×i minor *)
    let rec search lo hi =
      (* invariant: minor lo is non-singular (or lo=0), minor hi+1.. unknown;
         answer in [lo, hi] *)
      if lo >= hi then lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        if leading_minor_nonsingular st ~card_s ?precond ?route a_hat mid then
          search mid hi
        else search lo (mid - 1)
      end
    in
    search 0 n
end
