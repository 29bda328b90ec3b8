module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Conv.S with type elt = F.t) =
struct
  let check_len ~len a =
    Array.iter
      (fun s ->
        if Array.length s <> len then
          invalid_arg "Bivariate: series length mismatch")
      a

  let mul_outer ~len a b =
    check_len ~len a;
    check_len ~len b;
    let na = Array.length a and nb = Array.length b in
    if na = 0 || nb = 0 then [||]
    else begin
      (* stride 2len-1: inner products have degree <= 2len-2, no overlap *)
      let stride = (2 * len) - 1 in
      let pack v n =
        let out = Array.make (n * stride) F.zero in
        Array.iteri
          (fun i s -> Array.iteri (fun k c -> out.((i * stride) + k) <- c) s)
          v;
        out
      in
      let pa = pack a na and pb = pack b nb in
      let prod = C.mul_full pa pb in
      let n_out = na + nb - 1 in
      Array.init n_out (fun m ->
          Array.init len (fun k ->
              let idx = (m * stride) + k in
              if idx < Array.length prod then prod.(idx) else F.zero))
    end

  let scale_outer ~len s v =
    check_len ~len v;
    if Array.length s <> len then invalid_arg "Bivariate.scale_outer";
    if Array.length v = 0 then [||] else mul_outer ~len [| s |] v
end

module Series_conv
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Conv.S with type elt = F.t)
    (L : sig
      val len : int
    end) =
struct
  type elt = F.t array

  module B = Make (F) (C)

  let mul_full a b = B.mul_outer ~len:L.len a b
end
