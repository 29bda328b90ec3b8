module Make (F : Kp_field.Field_intf.FIELD) = struct
  module K = Kp_kernel.Dispatch.Make (F)

  let extend ~init ~rec_poly n =
    let l = Array.length rec_poly - 1 in
    if l < 0 then invalid_arg "Linrec.extend: empty recurrence";
    if not (F.equal rec_poly.(l) F.one) then
      invalid_arg "Linrec.extend: recurrence not monic";
    if Array.length init <> l then
      invalid_arg "Linrec.extend: init length must equal degree";
    let s = Array.make (max n l) F.zero in
    Array.blit init 0 s 0 (min n l);
    for j = 0 to n - l - 1 do
      let acc = ref F.zero in
      for i = 0 to l - 1 do
        acc := F.add !acc (F.mul rec_poly.(i) s.(j + i))
      done;
      s.(j + l) <- F.neg !acc
    done;
    Array.sub s 0 n

  let fibonacci_like a b n =
    (* recurrence λ^2 - λ - 1 *)
    extend ~init:[| a; b |]
      ~rec_poly:[| F.neg F.one; F.neg F.one; F.one |]
      n

  (* A^i·b ping-pongs between two buffers, so the loop allocates nothing
     past them and the outputs; b itself is only ever read *)
  let krylov_sequences apply_into ~us ~b n =
    let out = Array.map (fun _ -> Array.make n F.zero) us in
    let dim = Array.length b in
    let bufs = [| Array.make dim F.zero; Array.make dim F.zero |] in
    let cur = ref b in
    for i = 0 to n - 1 do
      for j = 0 to Array.length us - 1 do
        out.(j).(i) <- K.dot us.(j) !cur
      done;
      if i < n - 1 then begin
        let dst = bufs.(i land 1) in
        apply_into !cur dst;
        cur := dst
      end
    done;
    out

  let krylov_sequence apply_into ~u ~b n =
    (krylov_sequences apply_into ~us:[| u |] ~b n).(0)
end
