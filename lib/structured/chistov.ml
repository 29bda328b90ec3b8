module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module Ser = Kp_poly.Series.Make (F)
  module TZ = Toeplitz.Make (F) (C)

  (* ((I - λT)^{-1} e_n)_n = Σ_k λ^k (T^k e_n)_n mod λ^len, by len-1
     successive Toeplitz matrix-vector products. *)
  let diagonal_resolvent_entry ~n ~len d =
    if Array.length d <> (2 * n) - 1 then
      invalid_arg "Chistov: diagonal vector must have length 2n-1";
    let out = Array.make len F.zero in
    let t = ref (Array.init n (fun i -> if i = n - 1 then F.one else F.zero)) in
    for k = 0 to len - 1 do
      out.(k) <- !t.(n - 1);
      if k < len - 1 then t := TZ.matvec ~n d !t
    done;
    out

  let finish_from_inv_betas ~n inv_betas =
    let rec tree lo hi =
      if hi - lo = 1 then inv_betas.(lo)
      else begin
        let mid = (lo + hi) / 2 in
        Ser.mul (tree lo mid) (tree mid hi)
      end
    in
    let g = tree 0 n in
    (* g = det(I - λT); det(λI - T) coefficient of λ^{n-k} is g_k *)
    Array.init (n + 1) (fun j -> g.(n - j))

  let charpoly ~n d =
    let len = n + 1 in
    (* β_i for each leading principal submatrix, inverted (constant term 1),
       multiplied together by a balanced tree; the n inversions are mutually
       independent — the parallel axis of the §5 route *)
    let inv_betas =
      Array.init n (fun idx ->
          let i = idx + 1 in
          let di = TZ.leading_principal ~n d i in
          Ser.inv (diagonal_resolvent_entry ~n:i ~len di))
    in
    finish_from_inv_betas ~n inv_betas

  let charpoly_parallel ~n d =
    let module TC = Toeplitz_charpoly.Make (F) (C) in
    let len = n + 1 in
    (* β_i = last entry of the last column of (I_i - λT_i)^{-1}, which the
       §3 Newton iteration produces in O((log n)^2) depth *)
    let inv_betas =
      Array.init n (fun idx ->
          let i = idx + 1 in
          let di = TZ.leading_principal ~n d i in
          let _, y = TC.inverse_columns ~n:i ~len di in
          Ser.inv (Ser.of_array len y.(i - 1)))
    in
    finish_from_inv_betas ~n inv_betas

  let det ~n d =
    let cp = charpoly ~n d in
    if n land 1 = 0 then cp.(0) else F.neg cp.(0)
end
