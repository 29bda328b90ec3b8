module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module M = Kp_matrix.Dense.Core (F)

  let check ~n h =
    if Array.length h <> (2 * n) - 1 then
      invalid_arg "Hankel: vector must have length 2n-1"

  let entry ~n h i j =
    check ~n h;
    h.(i + j)

  let matvec ~n h v =
    check ~n h;
    if Array.length v <> n then invalid_arg "Hankel.matvec: bad vector";
    (* (Hv)_i = Σ_j h_{i+j} v_j = conv(h, rev v)_{i+n-1} *)
    let rv = Array.init n (fun j -> v.(n - 1 - j)) in
    let c = C.mul_full h rv in
    Array.init n (fun i ->
        let idx = i + n - 1 in
        if idx < Array.length c then c.(idx) else F.zero)

  let to_dense ~n h =
    check ~n h;
    M.init n n (fun i j -> h.(i + j))

  let to_toeplitz ~n h =
    check ~n h;
    (* (JH)(i,j) = H(n-1-i, j) = h(n-1-i+j); Toeplitz d with
       d(n-1+i-j) = h(n-1-i+j) means d(k) = h(2(n-1)-k) *)
    Array.init ((2 * n) - 1) (fun k -> h.((2 * (n - 1)) - k))

  let mirror_sign n = if n * (n - 1) / 2 mod 2 = 0 then 1 else -1

  let random gen n = Array.init ((2 * n) - 1) (fun _ -> gen ())
end
