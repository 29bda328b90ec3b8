module Cc = Kp_circuit.Circuit
module Ad = Kp_circuit.Autodiff

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module S = Solver.Make (F) (C)
  module M = S.M
  module MD = Kp_matrix.Dense.Make (F)
  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Lv = Las_vegas.Make (F)

  (* The traced convolution: Karatsuba is field-generic; when F is
     (semantically) the NTT prime field, the O(m log m) transform circuit is
     both smaller and shallower, and its root plan lifts correctly through
     the builder's of_int. *)
  let use_ntt =
    F.characteristic = Kp_poly.Conv.Default_ntt_prime.p
    && F.cardinality = Some F.characteristic

  let det_circuit ~n ~charpoly =
    let module B = Cc.Builder () in
    let module CB =
      (val (if use_ntt then
              (module Kp_poly.Conv.Ntt_generic (B) (Kp_poly.Conv.Default_ntt_prime)
                : Kp_poly.Conv.S with type elt = B.t)
            else (module Kp_poly.Conv.Karatsuba (B))))
    in
    let module P = Pipeline.Make (B) (CB) in
    let a = P.M.init n n (fun _ _ -> B.fresh_input ()) in
    let h = Array.init ((2 * n) - 1) (fun _ -> B.fresh_random ()) in
    let d = Array.init n (fun _ -> B.fresh_random ()) in
    let u = Array.init n (fun _ -> B.fresh_random ()) in
    let v = Array.init n (fun _ -> B.fresh_random ()) in
    let engine =
      match charpoly with
      | `Leverrier -> P.charpoly_leverrier
      (* parallel variant: keeps the traced circuit at O((log n)^2) depth *)
      | `Chistov -> P.charpoly_chistov_parallel
    in
    let p = P.precond_of ~charpoly:engine ~n ~h ~d in
    let det =
      P.det ~generator:(P.Toeplitz engine) ~strategy:P.Doubling a ~p ~u ~v
    in
    B.finish ~outputs:[| det |];
    B.circuit

  let charpoly_kind n =
    if F.characteristic = 0 || F.characteristic > n then `Leverrier else `Chistov

  let inverse ?retries ?card_s ?deadline_ns st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Inverse.inverse: non-square";
    let circuit = det_circuit ~n ~charpoly:(charpoly_kind n) in
    let { Ad.circuit = q; _ } = Ad.differentiate circuit in
    let inputs = Array.init (n * n) (fun k -> M.get a (k / n) (k mod n)) in
    Lv.run ~ns:"inverse" ~op:"inverse" ?retries ?card_s ?deadline_ns ~n
    @@ fun ~attempt:_ ~kind:_ ~card_s ->
    let randoms = Array.init (Cc.num_random q) (fun _ -> F.sample st ~card_s) in
    (* the circuit never exposes its sequence: an attempt that meets
       det = 0 runs one dense solve on a random right-hand side, whose
       checked kernel vector ends the run; anything else is bad luck *)
    let singular_or reason =
      match S.solve ~retries:1 ~card_s st a (Lv.sample_vec st ~card_s n) with
      | Error (O.Singular { kernel; _ }) ->
        Rt.Error_now (O.Singular { kernel; report = O.empty_report })
      | Ok _ | Error _ -> Rt.Reject reason
    in
    match Cc.eval (module F) q ~inputs ~randoms with
    | exception Division_by_zero ->
      (* the generator stage divided by zero: degree < n *)
      singular_or O.Low_degree
    | out ->
      let det = out.(0) in
      if F.is_zero det then singular_or O.Zero_constant_term
      else begin
        (* gradient entry for input (i,j) sits at out.(1 + i*n + j);
           A^{-1}_{ij} = (∂det/∂x_{ji}) / det *)
        let det_inv = F.inv det in
        let inv = M.init n n (fun i j -> F.mul det_inv out.(1 + (j * n) + i)) in
        if MD.equal (M.mul a inv) (M.identity n) then Rt.Accept inv
        else Rt.Reject O.Residual_mismatch
      end

  let c_pool_columns = Kp_obs.Counter.make "pool.inverse.columns"

  (* merge per-column solve results in column order: attempts accumulate
     across the columns before the first failure, so an error's report
     carries that prior work.  Shared with the session layer, whose columns
     come from cached-precomputation solves instead of fresh ones. *)
  let merge_columns ~n results =
    let out = M.make n n in
    let rec merge j acc =
      if j = n then Ok (out, acc)
      else begin
        match results.(j) with
        | Ok (x, r) ->
          for i = 0 to n - 1 do
            M.set out i j x.(i)
          done;
          merge (j + 1) (O.merge_reports acc r)
        | Error e -> Error (O.with_report (O.merge_reports acc) e)
      end
    in
    merge 0 O.empty_report

  let solve_columns ?pool ~n solve_col st =
    (* Per-column random states are split off [st] up front, in column
       order, so the answer is a function of [st] alone — identical for any
       pool size (including none).  The n solves are then independent. *)
    let sts = Array.init n (fun _ -> Kp_util.Rng.split st) in
    let one j =
      let e = Array.init n (fun i -> if i = j then F.one else F.zero) in
      solve_col j sts.(j) e
    in
    let results =
      match pool with
      | Some p when Kp_util.Pool.size p > 1 && n > 1 ->
        Kp_obs.Counter.incr c_pool_columns;
        Kp_util.Pool.parallel_init p n one
      | _ -> Array.init n one
    in
    merge_columns ~n results

  let inverse_via_solves ?(retries = 10) ?card_s ?deadline_ns ?pool ?precond
      st (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Inverse.inverse_via_solves: non-square";
    solve_columns ?pool ~n
      (fun _j st_j e ->
        S.solve ~retries ?card_s ?deadline_ns ?pool ?precond st_j a e)
      st
end
