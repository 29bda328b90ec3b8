module Cc = Kp_circuit.Circuit
module Ad = Kp_circuit.Autodiff

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module S = Solver.Make (F) (C)
  module M = S.M
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Lv = Las_vegas.Make (F)

  let use_ntt =
    F.characteristic = Kp_poly.Conv.Default_ntt_prime.p
    && F.cardinality = Some F.characteristic

  let solve_circuit ~n ~charpoly =
    let module B = Cc.Builder () in
    let module CB =
      (val (if use_ntt then
              (module Kp_poly.Conv.Ntt_generic (B) (Kp_poly.Conv.Default_ntt_prime)
                : Kp_poly.Conv.S with type elt = B.t)
            else (module Kp_poly.Conv.Karatsuba (B))))
    in
    let module P = Pipeline.Make (B) (CB) in
    (* input layout: c (n), then A (n^2), then b (n) *)
    let c = Array.init n (fun _ -> B.fresh_input ()) in
    let a = P.M.init n n (fun _ _ -> B.fresh_input ()) in
    let b = Array.init n (fun _ -> B.fresh_input ()) in
    let h = Array.init ((2 * n) - 1) (fun _ -> B.fresh_random ()) in
    let d = Array.init n (fun _ -> B.fresh_random ()) in
    let u = Array.init n (fun _ -> B.fresh_random ()) in
    let engine =
      match charpoly with
      | `Leverrier -> P.charpoly_leverrier
      (* parallel variant: keeps the traced circuit at O((log n)^2) depth *)
      | `Chistov -> P.charpoly_chistov_parallel
    in
    let p = P.precond_of ~charpoly:engine ~n ~h ~d in
    let { P.x; _ } =
      P.solve ~generator:(P.Toeplitz engine) ~strategy:P.Doubling a ~b:c ~p ~u
    in
    (* f = x · b, balanced for depth *)
    let module V = Kp_matrix.Vec.Make (B) in
    let f = V.dot x b in
    B.finish ~outputs:[| f |];
    B.circuit

  let charpoly_kind n =
    if F.characteristic = 0 || F.characteristic > n then `Leverrier else `Chistov

  let solve_transposed ?retries ?card_s ?deadline_ns st (a : M.t) b =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Transpose.solve_transposed: non-square";
    let p = solve_circuit ~n ~charpoly:(charpoly_kind n) in
    let { Ad.circuit = q; gradient; _ } = Ad.differentiate p in
    ignore gradient;
    let at = M.transpose a in
    Lv.run ~ns:"transpose" ~op:"solve_transposed" ?retries ?card_s ?deadline_ns
      ~n
    @@ fun ~attempt:_ ~kind:_ ~card_s ->
    let c = Array.init n (fun _ -> F.sample st ~card_s) in
    let inputs =
      Array.concat
        [ c; Array.init (n * n) (fun k -> M.get a (k / n) (k mod n)); b ]
    in
    let randoms = Array.init (Cc.num_random q) (fun _ -> F.sample st ~card_s) in
    match Cc.eval (module F) q ~inputs ~randoms with
    | exception Division_by_zero -> Rt.Reject O.Division_error
    | out ->
      (* outputs: [f; gradient over all inputs; random gradient];
         the c-block gradient is outputs 1..n *)
      Lv.verified (M.matvec at) (Array.init n (fun i -> out.(1 + i))) b

  let length_ratio ~n =
    let p = solve_circuit ~n ~charpoly:`Leverrier in
    let { Ad.circuit = q; _ } = Ad.differentiate p in
    let sp = Cc.stats p and sq = Cc.stats q in
    ( float_of_int sq.Cc.size /. float_of_int sp.Cc.size,
      float_of_int sq.Cc.depth /. float_of_int sp.Cc.depth )
end
