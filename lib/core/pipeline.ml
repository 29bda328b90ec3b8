module Make
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module M = Kp_matrix.Dense.Core (F)
  module K = Krylov.Make (F)
  module TZ = Kp_structured.Toeplitz.Make (F) (C)
  module TC = Kp_structured.Toeplitz_charpoly.Make (F) (C)
  module CH = Kp_structured.Chistov.Make (F) (C)
  module Pc = Kp_precond.Precond
  module PcC = Pc.Core (F) (C)

  type charpoly_engine = n:int -> F.t array -> F.t array

  let charpoly_leverrier : charpoly_engine = TC.charpoly
  let charpoly_chistov : charpoly_engine = CH.charpoly
  let charpoly_chistov_parallel : charpoly_engine = CH.charpoly_parallel

  type strategy = Doubling | Sequential

  type generator =
    | Toeplitz of charpoly_engine
    | Direct of (n:int -> F.t array -> F.t array)

  module Span = Kp_obs.Span

  type precond = F.t Pc.t

  let precond_of ~charpoly ~n ~h ~d =
    PcC.hankel_diag ~det:(PcC.det_hd ~charpoly) ~n ~h ~d ()

  let preconditioned ?mul (a : M.t) (p : precond) =
    Span.with_ "pipeline.precondition" @@ fun () ->
    let mul = Option.value mul ~default:M.mul in
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Pipeline.preconditioned: non-square";
    if p.Pc.n <> n then invalid_arg "Pipeline.preconditioned: dimension";
    let hd = { M.rows = n; cols = n; data = p.Pc.dense () } in
    mul a hd

  (* solve T z = rhs by Cayley-Hamilton using the charpoly of T *)
  let toeplitz_ch_solve ~charpoly ~strategy ~mul ~n dt rhs =
    let cp = charpoly ~n dt in
    (* T^{-1} rhs = -(1/cp_0) Σ_{k=1}^{n} cp_k T^{k-1} rhs *)
    let acc =
      match strategy with
      | Sequential ->
        let acc = ref (Array.make n F.zero) in
        let w = ref rhs in
        for k = 1 to n do
          acc := Array.mapi (fun i ai -> F.add ai (F.mul cp.(k) !w.(i))) !acc;
          if k < n then w := TZ.matvec ~n dt !w
        done;
        !acc
      | Doubling ->
        let t_dense = TZ.to_dense ~n dt in
        let cols = K.columns ~mul t_dense rhs n in
        K.combination cols (Array.sub cp 1 n)
    in
    let neg_inv = F.neg (F.inv cp.(0)) in
    Array.map (F.mul neg_inv) acc

  let minimal_generator ?mul ~generator ~strategy ~n seq =
    Span.with_ "pipeline.generator" @@ fun () ->
    if Array.length seq < 2 * n then invalid_arg "Pipeline.minimal_generator";
    match generator with
    | Direct gen -> gen ~n (Array.sub seq 0 (2 * n))
    | Toeplitz charpoly ->
      let mul = Option.value mul ~default:M.mul in
      let dt = Array.sub seq 0 ((2 * n) - 1) in
      let rhs = Array.init n (fun j -> seq.(n + j)) in
      let x = toeplitz_ch_solve ~charpoly ~strategy ~mul ~n dt rhs in
      (* x solves T x = rhs; generator f(λ) = λ^n - Σ_{i<n} x_{n-1-i} λ^i *)
      Array.init (n + 1) (fun i -> if i = n then F.one else F.neg x.(n - 1 - i))

  let det_from_generator ~n f =
    if n land 1 = 0 then f.(0) else F.neg f.(0)

  (* det(H)·det(D), hoisted into the preconditioner layer; kept exported
     for the circuit builders that re-derive det(H·D) from recorded wires *)
  let det_hd = PcC.det_hd

  type solve_result = { x : F.t array; f : F.t array; seq : F.t array }

  let krylov ~strategy ~mul a_tilde ~u ~v n =
    Span.with_ "pipeline.krylov" @@ fun () ->
    let cols =
      match strategy with
      | Doubling -> K.columns ~mul a_tilde v (2 * n)
      | Sequential -> K.columns_sequential a_tilde v (2 * n)
    in
    (cols, K.sequence ~u cols)

  (* undo the preconditioner: from the Krylov columns of Ã on b and the
     degree-n generator f, recover x with A·x = b.
       x̃ = -(1/f_0) Σ_{i=0}^{n-1} f_{i+1} Ã^i b,  x = P · x̃ *)
  let recover ~n ~f ~p cols =
    Span.with_ "pipeline.recover" @@ fun () ->
    let comb = K.combination (M.init n n (fun i j -> M.get cols i j)) (Array.sub f 1 n) in
    let neg_inv = F.neg (F.inv f.(0)) in
    let x_tilde = Array.map (F.mul neg_inv) comb in
    p.Pc.apply x_tilde

  let solve ?mul ~generator ~strategy (a : M.t) ~b ~p ~u =
    let mul = Option.value mul ~default:M.mul in
    let n = a.M.rows in
    let a_tilde = preconditioned ~mul a p in
    let cols, seq = krylov ~strategy ~mul a_tilde ~u ~v:b n in
    let f = minimal_generator ~mul ~generator ~strategy ~n seq in
    let x = recover ~n ~f ~p cols in
    { x; f; seq }

  let det ?mul ~generator ~strategy (a : M.t) ~p ~u ~v =
    let mul = Option.value mul ~default:M.mul in
    let n = a.M.rows in
    let a_tilde = preconditioned ~mul a p in
    let _, seq = krylov ~strategy ~mul a_tilde ~u ~v n in
    let f = minimal_generator ~mul ~generator ~strategy ~n seq in
    let det_tilde = det_from_generator ~n f in
    F.div det_tilde (p.Pc.det ())
end
