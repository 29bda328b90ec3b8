module Make (F : Kp_field.Field_intf.FIELD_CORE) = struct
  module M = Kp_matrix.Dense.Core (F)
  module S = Kp_poly.Series.Make (F)

  (* e_k = (1/k) Σ_{i=1}^{k} (-1)^{i-1} e_{k-i} s_i ; charpoly coeff of
     λ^{n-k} is (-1)^k e_k *)
  let newton_identities ~n s =
    if Array.length s < n + 1 then invalid_arg "Leverrier.newton_identities";
    let e = Array.make (n + 1) F.zero in
    e.(0) <- F.one;
    for k = 1 to n do
      let acc = ref F.zero in
      for i = 1 to k do
        let term = F.mul e.(k - i) s.(i) in
        acc := if i land 1 = 1 then F.add !acc term else F.sub !acc term
      done;
      e.(k) <- F.div !acc (F.of_int k)
    done;
    Array.init (n + 1) (fun j ->
        (* coefficient of λ^j is (-1)^(n-j) e_{n-j} *)
        let k = n - j in
        if k land 1 = 0 then e.(k) else F.neg e.(k))

  let from_trace_series ~n tr =
    if Array.length tr < n + 1 then invalid_arg "Leverrier.from_trace_series";
    (* g(λ) = det(I - λT) = exp( - Σ_{k>=1} s_k λ^k / k ), then
       det(λI - T) = λ^n g(1/λ): coefficient of λ^{n-k} is g_k *)
    let integrand =
      Array.init (n + 1) (fun k ->
          if k = 0 then F.zero else F.neg (F.div tr.(k) (F.of_int k)))
    in
    let g = S.exp integrand in
    Array.init (n + 1) (fun j -> g.(n - j))

  let char_to_det ~n cp =
    if n land 1 = 0 then cp.(0) else F.neg cp.(0)

  let power_sums_of_dense ~mul (a : M.t) =
    let n = a.M.rows in
    let s = Array.make (n + 1) F.zero in
    s.(0) <- F.of_int n;
    let trace (m : M.t) =
      let acc = ref F.zero in
      for i = 0 to n - 1 do
        acc := F.add !acc (M.get m i i)
      done;
      !acc
    in
    let power = ref a in
    for k = 1 to n do
      s.(k) <- trace !power;
      if k < n then power := mul !power a
    done;
    s
end
