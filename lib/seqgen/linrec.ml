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

  (* A^i·b for i < keep goes into a fresh array the caller gets back (the
     0th is b itself); past that prefix the powers ping-pong between two
     buffers, so the loop allocates nothing more; b is only ever read *)
  let krylov_pass apply_into ~us ~b ~keep n =
    let out = Array.map (fun _ -> Array.make n F.zero) us in
    let dim = Array.length b in
    let basis = Array.make (max 0 (min keep n)) b in
    let bufs = [| Array.make dim F.zero; Array.make dim F.zero |] in
    let cur = ref b in
    for i = 0 to n - 1 do
      for j = 0 to Array.length us - 1 do
        out.(j).(i) <- K.dot us.(j) !cur
      done;
      if i < n - 1 then begin
        let kept = i + 1 < Array.length basis in
        let dst = if kept then Array.make dim F.zero else bufs.(i land 1) in
        apply_into !cur dst;
        if kept then basis.(i + 1) <- dst;
        cur := dst
      end
    done;
    (out, basis)

  let krylov_sequences apply_into ~us ~b n =
    fst (krylov_pass apply_into ~us ~b ~keep:0 n)

  let krylov_sequence apply_into ~u ~b n =
    (krylov_sequences apply_into ~us:[| u |] ~b n).(0)
end
