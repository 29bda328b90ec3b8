module Make_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) =
struct
  module M = Kp_matrix.Dense.Core (F)

  let conv_at c idx = if idx >= 0 && idx < Array.length c then c.(idx) else F.zero

  let apply ~x ~y v =
    let n = Array.length v in
    if Array.length x <> n || Array.length y <> n then
      invalid_arg "Gohberg_semencul.apply: length mismatch";
    (* T⁻¹v = (1/x₀)(L(x)·U(ỹ)·v − L(y↓)·U(x̃)·v), two convolutions per
       chain.  t1 = U(ỹ)·v : t1_i = conv(y, v)_{n-1+i} *)
    let cyv = C.mul_full y v in
    let t1 = Array.init n (fun i -> conv_at cyv (n - 1 + i)) in
    (* r1 = L(x)·t1 = conv(x, t1) truncated *)
    let cxt1 = C.mul_full x t1 in
    let r1 = Array.init n (fun i -> conv_at cxt1 i) in
    (* t2 = U(x̃)·v : t2_i = conv(x, v)_{n+i} *)
    let cxv = C.mul_full x v in
    let t2 = Array.init n (fun i -> conv_at cxv (n + i)) in
    (* r2 = L(y↓)·t2 : r2_i = conv(y, t2)_{i-1} *)
    let cyt2 = C.mul_full y t2 in
    let r2 = Array.init n (fun i -> conv_at cyt2 (i - 1)) in
    let x0_inv = F.inv x.(0) in
    (* (1/x₀)(r1 − r2) as two bulk passes — same subs/muls as the historical
       per-element F.mul x0_inv (F.sub r1 r2) *)
    let out = Array.make n F.zero in
    K.sub_into ~x:r1 ~xoff:0 ~y:r2 ~yoff:0 ~dst:out ~doff:0 ~len:n;
    K.scale_into ~a:x0_inv ~x:out ~xoff:0 ~dst:out ~doff:0 ~len:n;
    out

  (* balanced reduction: O(log n) depth when traced into a circuit *)
  let rec balanced_sum lo hi f =
    if hi <= lo then F.zero
    else if hi - lo <= 8 then begin
      let acc = ref (f lo) in
      for i = lo + 1 to hi - 1 do
        acc := F.add !acc (f i)
      done;
      !acc
    end
    else begin
      let mid = (lo + hi) / 2 in
      F.add (balanced_sum lo mid f) (balanced_sum mid hi f)
    end

  let trace ~x ~y =
    let n = Array.length x in
    if Array.length y <> n then invalid_arg "Gohberg_semencul.trace";
    (* trace(L(a)·U(b)) = Σ_m (n-m)·a_m·b_m with a the first column and b
       the first row, both 0-indexed from the diagonal.
       L(x)·U(ỹ): a_m = x_m, b_m = y_{n-1-m};
       L(y↓)·U(x̃): a_m = y_{m-1}, b_m = x_{n-m} (m >= 1). *)
    let s1 =
      balanced_sum 0 n (fun m ->
          F.mul (F.of_int (n - m)) (F.mul x.(m) y.(n - 1 - m)))
    in
    let s2 =
      balanced_sum 1 n (fun m ->
          F.mul (F.of_int (n - m)) (F.mul y.(m - 1) x.(n - m)))
    in
    F.mul (F.inv x.(0)) (F.sub s1 s2)

  let first_last_columns_dense ~x ~y =
    let n = Array.length x in
    let cols =
      Array.init n (fun j ->
          let e = Array.make n F.zero in
          e.(j) <- F.one;
          apply ~x ~y e)
    in
    M.init n n (fun i j -> cols.(j).(i))
end

module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
  Make_k (F) (C) (Kp_kernel.Derived.Make (F))
