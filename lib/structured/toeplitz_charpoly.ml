module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module Ser = Kp_poly.Series.Make (F)
  module Lev = Leverrier.Make (F)

  (* One Newton doubling step at precision [len']: given the first and last
     columns of (I - λT)^{-1} accurate mod λ^len (len >= ceil(len'/2)),
     return them accurate mod λ^{len'}. *)
  let newton_step ~n ~len' d x y =
    let module R =
      Kp_poly.Series_ring.Make
        (F)
        (struct
          let len = len'
        end)
    in
    let module SC =
      Kp_poly.Bivariate.Series_conv (F) (C)
        (struct
          let len = len'
        end)
    in
    let module GS = Gohberg_semencul.Make (R) (SC) in
    let module TZ = Toeplitz.Make (R) (SC) in
    let pad v = Array.map (fun s -> Ser.of_array len' s) v in
    let x = pad x and y = pad y in
    (* T(λ) = I - λT as a Toeplitz matrix over R *)
    let dT =
      Array.init ((2 * n) - 1) (fun k ->
          let s = Array.make len' F.zero in
          if k = n - 1 then s.(0) <- F.one;
          if len' > 1 then s.(1) <- F.neg d.(k);
          s)
    in
    let refine col =
      let t = TZ.matvec ~n dT col in
      let xt = GS.apply ~x ~y t in
      Array.init n (fun i -> R.sub (R.add col.(i) col.(i)) xt.(i))
    in
    (refine x, refine y)

  let inverse_columns ~n ~len d =
    if Array.length d <> (2 * n) - 1 then
      invalid_arg "Toeplitz_charpoly: diagonal vector must have length 2n-1";
    if len < 1 then invalid_arg "Toeplitz_charpoly: len < 1";
    (* precision 1: (I - λT)^{-1} = I mod λ *)
    let x0 =
      Array.init n (fun i -> if i = 0 then [| F.one |] else [| F.zero |])
    in
    let y0 =
      Array.init n (fun i -> if i = n - 1 then [| F.one |] else [| F.zero |])
    in
    let rec grow l x y =
      if l >= len then (x, y)
      else begin
        let len' = min len (2 * l) in
        let x', y' = newton_step ~n ~len' d x y in
        grow len' x' y'
      end
    in
    grow 1 x0 y0

  let trace_series ~n ~len d =
    let x, y = inverse_columns ~n ~len d in
    let module R =
      Kp_poly.Series_ring.Make
        (F)
        (struct
          let len = len
        end)
    in
    let module SC =
      Kp_poly.Bivariate.Series_conv (F) (C)
        (struct
          let len = len
        end)
    in
    let module GS = Gohberg_semencul.Make (R) (SC) in
    GS.trace ~x ~y

  let charpoly ~n d =
    let tr = trace_series ~n ~len:(n + 1) d in
    Lev.from_trace_series ~n tr

  let det ~n d = Lev.char_to_det ~n (charpoly ~n d)

  let solve ~n d b =
    if Array.length b <> n then invalid_arg "Toeplitz_charpoly.solve: bad rhs";
    let module TZ = Toeplitz.Make (F) (C) in
    let cp = charpoly ~n d in
    (* T^{-1} b = -(1/c_0) Σ_{k=1}^{n} c_k T^{k-1} b *)
    let acc = ref (Array.make n F.zero) in
    let w = ref b in
    for k = 1 to n do
      acc := Array.mapi (fun i ai -> F.add ai (F.mul cp.(k) !w.(i))) !acc;
      if k < n then w := TZ.matvec ~n d !w
    done;
    let c = F.neg (F.inv cp.(0)) in
    Array.map (F.mul c) !acc
end
