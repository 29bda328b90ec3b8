module Make (F : Kp_field.Field_intf.FIELD) = struct
  module P = Kp_poly.Dense.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)

  (* Massey's LFSR synthesis.  c and b are connection polynomials stored
     low-to-high with c.(0) = 1.  c is zero from index [cl] on, and b is
     a copy of such a prefix of length [bl]: the update c ← c − coef·x^m·b
     stops at bl, since subtracting coef·0 would leave every later entry
     as it is.  [saved] is the spare array the outgoing c is copied into; it
     becomes the next b, and past bl it is never read.

     Each discrepancy is one kernel [dot_acc] of c.(1..l) against [rev],
     the sequence reversed (rev.(n-1-k) = s.(k)), so that s_{i-1}, …,
     s_{i-l} sit at ascending indices; each update is one kernel
     [axpy_into] by −coef. *)
  let connection_polynomial (s : F.t array) =
    let n = Array.length s in
    let rev = Array.init n (fun k -> s.(n - 1 - k)) in
    let c = Array.make (n + 1) F.zero in
    let b = ref (Array.make (n + 1) F.zero) in
    let saved = ref (Array.make (n + 1) F.zero) in
    c.(0) <- F.one;
    !b.(0) <- F.one;
    let cl = ref 1 and bl = ref 1 in
    let l = ref 0 and m = ref 1 and bb = ref F.one in
    let update coef =
      let hi = min !bl (n + 1 - !m) in
      K.axpy_into ~a:(F.neg coef) ~x:!b ~xoff:0 ~y:c ~yoff:!m ~len:hi;
      if hi > 0 then cl := max !cl (hi + !m)
    in
    for i = 0 to n - 1 do
      (* discrepancy d = s_i + sum_{j=1}^{l} c_j s_{i-j} *)
      let d =
        K.dot_acc ~init:s.(i) ~x:c ~xoff:1 ~y:rev ~yoff:(n - i) ~len:!l
      in
      if F.is_zero d then incr m
      else if 2 * !l <= i then begin
        let t = !saved and tl = !cl in
        Array.blit c 0 t 0 tl;
        update (F.div d !bb);
        l := i + 1 - !l;
        saved := !b;
        b := t;
        bl := tl;
        bb := d;
        m := 1
      end
      else begin
        update (F.div d !bb);
        incr m
      end
    done;
    Array.sub c 0 (!l + 1)

  let minimal_polynomial s =
    let c = connection_polynomial s in
    let l = Array.length c - 1 in
    (* monic reversal: f_i = c_{l-i} *)
    P.of_coeffs (Array.init (l + 1) (fun i -> c.(l - i)))

  (* every window j checked, one kernel [dot_acc] from zero each *)
  let generates f s =
    let fp = P.of_coeffs f in
    if P.is_zero fp then Array.for_all F.is_zero s
    else begin
      let l = P.degree fp in
      let coeffs = Array.init (l + 1) (P.coeff fp) in
      let n = Array.length s in
      let ok = ref true in
      for j = 0 to n - 1 - l do
        let acc =
          K.dot_acc ~init:F.zero ~x:coeffs ~xoff:0 ~y:s ~yoff:j ~len:(l + 1)
        in
        if not (F.is_zero acc) then ok := false
      done;
      !ok
    end
end
