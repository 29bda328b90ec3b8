module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module M = Kp_matrix.Dense.Core (F)

  let check ~n d =
    if Array.length d <> (2 * n) - 1 then
      invalid_arg "Toeplitz: diagonal vector must have length 2n-1"

  let entry ~n d i j =
    check ~n d;
    d.(n - 1 + i - j)

  let matvec ~n d v =
    check ~n d;
    if Array.length v <> n then invalid_arg "Toeplitz.matvec: bad vector";
    let c = C.mul_full d v in
    Array.init n (fun i ->
        let idx = n - 1 + i in
        if idx < Array.length c then c.(idx) else F.zero)

  let to_dense ~n d =
    check ~n d;
    M.init n n (fun i j -> d.(n - 1 + i - j))

  let of_dense ~n (m : M.t) =
    Array.init ((2 * n) - 1) (fun k ->
        if k <= n - 1 then M.get m 0 (n - 1 - k) else M.get m (k - (n - 1)) 0)

  let leading_principal ~n d i =
    check ~n d;
    if i < 1 || i > n then invalid_arg "Toeplitz.leading_principal";
    Array.sub d (n - i) ((2 * i) - 1)

  let random gen n = Array.init ((2 * n) - 1) (fun _ -> gen ())

  let lower_triangular_apply a w =
    let n = Array.length w in
    let c = C.mul_full a w in
    Array.init n (fun i -> if i < Array.length c then c.(i) else F.zero)
end
