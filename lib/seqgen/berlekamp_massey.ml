module Make (F : Kp_field.Field_intf.FIELD) = struct
  module P = Kp_poly.Dense.Make (F)

  (* Massey's LFSR synthesis.  c and b are connection polynomials stored
     low-to-high with c.(0) = 1.  c is zero from index [cl] on, and b is
     a copy of such a prefix of length [bl]: the update c ← c − coef·x^m·b
     stops at bl, since subtracting coef·0 would leave every later entry
     as it is.  [saved] is the spare array the outgoing c is copied into; it
     becomes the next b, and past bl it is never read. *)
  let connection_polynomial (s : F.t array) =
    let n = Array.length s in
    let c = Array.make (n + 1) F.zero in
    let b = ref (Array.make (n + 1) F.zero) in
    let saved = ref (Array.make (n + 1) F.zero) in
    c.(0) <- F.one;
    !b.(0) <- F.one;
    let cl = ref 1 and bl = ref 1 in
    let l = ref 0 and m = ref 1 and bb = ref F.one in
    let update coef =
      let b = !b and hi = min !bl (n + 1 - !m) in
      for j = 0 to hi - 1 do
        c.(j + !m) <- F.sub c.(j + !m) (F.mul coef b.(j))
      done;
      if hi > 0 then cl := max !cl (hi + !m)
    in
    for i = 0 to n - 1 do
      (* discrepancy d = s_i + sum_{j=1}^{l} c_j s_{i-j} *)
      let d = ref s.(i) in
      for j = 1 to !l do
        d := F.add !d (F.mul c.(j) s.(i - j))
      done;
      if F.is_zero !d then incr m
      else if 2 * !l <= i then begin
        let t = !saved and tl = !cl in
        Array.blit c 0 t 0 tl;
        update (F.div !d !bb);
        l := i + 1 - !l;
        saved := !b;
        b := t;
        bl := tl;
        bb := !d;
        m := 1
      end
      else begin
        update (F.div !d !bb);
        incr m
      end
    done;
    Array.sub c 0 (!l + 1)

  let minimal_polynomial s =
    let c = connection_polynomial s in
    let l = Array.length c - 1 in
    (* monic reversal: f_i = c_{l-i} *)
    P.of_coeffs (Array.init (l + 1) (fun i -> c.(l - i)))

  let generates f s =
    let fp = P.of_coeffs f in
    if P.is_zero fp then Array.for_all F.is_zero s
    else begin
      let l = P.degree fp in
      let n = Array.length s in
      let ok = ref true in
      for j = 0 to n - 1 - l do
        let acc = ref F.zero in
        for i = 0 to l do
          acc := F.add !acc (F.mul (P.coeff fp i) s.(j + i))
        done;
        if not (F.is_zero !acc) then ok := false
      done;
      !ok
    end
end
