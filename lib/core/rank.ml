module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module S = Solver.Make (F) (C)
  module M = S.M
  module MD = Kp_matrix.Dense.Make (F)
  module O = Kp_robust.Outcome
  module Lv = Las_vegas.Make (F)

  type preconditioned = {
    u_mat : M.t;
    v_mat : M.t;
    a_hat : M.t;
  }

  let precondition st ?card_s (a : M.t) =
    let n = a.M.rows in
    let card_s = Option.value card_s ~default:(Lv.card_s n) in
    (* unit-triangular products are always non-singular; their random
       entries come from the caller's sample set *)
    let u_mat = MD.sample_nonsingular st ~card_s n in
    let v_mat = MD.sample_nonsingular st ~card_s n in
    { u_mat; v_mat; a_hat = M.mul u_mat (M.mul a v_mat) }

  let search ~det (a_hat : M.t) =
    (* invariant: minor lo is non-singular (or lo = 0); answer in [lo, hi].
       Only [Ok d] decides a minor: an error says nothing about it, so it
       ends the search *)
    let rec go lo hi =
      if lo >= hi then Ok lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        match det (M.init mid mid (fun r c -> M.get a_hat r c)) with
        | Ok (d, _) -> if F.is_zero d then go lo (mid - 1) else go mid hi
        | Error e -> Error e
      end
    in
    go 0 a_hat.M.rows

  let rank ?card_s ?deadline_ns ?precond ?route st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Rank.rank: non-square (embed first)";
    let card_s = Option.value card_s ~default:(Lv.card_s n) in
    let { a_hat; _ } = precondition st ~card_s a in
    search a_hat ~det:(S.det ~card_s ~retries:6 ?deadline_ns ?precond ?route st)
end
