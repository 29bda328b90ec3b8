module Make (F : Kp_field.Field_intf.FIELD) = struct
  module Bb = Kp_matrix.Blackbox.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)

  (* concrete solves dispatch on F.kernel_hint; the counting instantiation
     below stays on the derived-kernel Karatsuba so measured op counts are
     the circuit's, not a word-level backend's *)
  module C = Kp_poly.Conv.Karatsuba_field (F)
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module LR = Kp_seqgen.Linrec.Make (F)
  module Pc = Kp_precond.Precond
  module SP = Kp_precond.Precond.Make (F) (C)

  module O = Kp_robust.Outcome
  module Rt = Kp_robust.Retry
  module Span = Kp_obs.Span
  module Lv = Las_vegas.Make (F)

  (* the 2n-term sequences {u·Aⁱ·b}, one per u of [us], from one Krylov
     pass, the first [keep] vectors Aⁱ·b it passed through, and the
     generator of the first sequence: the applies and Berlekamp–Massey,
     each under its own span *)
  let sequences_and_generator ?(keep = 0) (bb : Bb.t) ~us ~b =
    let seqs, basis =
      Span.with_ "wiedemann.krylov" @@ fun () ->
      LR.krylov_pass bb.Bb.apply_into ~us ~b ~keep (2 * bb.Bb.dim)
    in
    ( seqs,
      basis,
      Span.with_ "wiedemann.generator" @@ fun () ->
      BM.P.to_array (BM.minimal_polynomial seqs.(0)) )

  let generator ?keep bb ~u ~b =
    let _, basis, f = sequences_and_generator ?keep bb ~us:[| u |] ~b in
    (basis, f)

  (* how many Krylov vectors a solve keeps for Cayley–Hamilton:
     k = min(n, ⌊ops/n⌋) for A's cost per apply, so the basis never holds
     more words than one apply of A costs operations — all n for a dense
     A, a few dozen for a sparse one, none for a box of unknown cost *)
  let kept (bb : Bb.t) = min bb.Bb.dim (bb.Bb.ops_per_apply / bb.Bb.dim)

  let minimal_polynomial ?card_s st (bb : Bb.t) =
    Span.with_ "wiedemann.minpoly" @@ fun () ->
    let n = bb.Bb.dim in
    let card_s = Option.value card_s ~default:(Lv.card_s n) in
    let bb = Bb.instrument bb in
    let u = Lv.sample_vec st ~card_s n in
    let b = Lv.sample_vec st ~card_s n in
    snd (generator bb ~u ~b)

  (* Σ_{i=1}^{deg} f_i A^{i-1} v, the Cayley–Hamilton accumulator: one
     kernel axpy per Krylov vector into a single accumulator.  A^{i-1}·v
     is read from [basis] (the Krylov pass's kept prefix, basis.(0) = v)
     while it lasts; past it the loop applies A, ping-ponging between two
     buffers, max(0, deg − max(k, 1)) applies for a k-vector basis.  For
     f = λᵏ·h with f generating v it is A^{k-1}·h(A)·v, non-zero with
     A·acc = f(A)·v = 0: the kernel vector of a singular verdict *)
  let cayley_hamilton_sum ?(basis = [||]) (bb : Bb.t) f ~deg v =
    Span.with_ "wiedemann.cayley_hamilton" @@ fun () ->
    let n = Array.length v in
    let k = Array.length basis in
    let acc = Array.make n F.zero in
    let bufs = [| Array.make n F.zero; Array.make n F.zero |] in
    let w = ref v in
    for i = 1 to deg do
      if i <= k then w := basis.(i - 1)
      else if i > 1 then begin
        let dst = bufs.(i land 1) in
        bb.Bb.apply_into !w dst;
        w := dst
      end;
      K.axpy_into ~a:f.(i) ~x:!w ~xoff:0 ~y:acc ~yoff:0 ~len:n
    done;
    acc

  (* x = -(1/f_0)·Σ_{i=1}^{deg} f_i A^{i-1} b: the sum, one kernel scale *)
  let cayley_hamilton_solution ?basis bb f ~deg b =
    let acc = cayley_hamilton_sum ?basis bb f ~deg b in
    let c = F.neg (F.inv f.(0)) in
    K.scale_into ~a:c ~x:acc ~xoff:0 ~dst:acc ~doff:0 ~len:(Array.length b);
    acc

  (* a 0×0 black box has no Krylov sequence to generate: every attempt
     would be rejected as low-degree, so refuse it up front *)
  let check_dim op (bb : Bb.t) =
    if bb.Bb.dim < 1 then invalid_arg (op ^ ": empty black box")

  let solve ?retries ?card_s ?deadline_ns st (bb : Bb.t) b =
    Span.with_ "wiedemann.solve" @@ fun () ->
    check_dim "Wiedemann.solve" bb;
    let n = bb.Bb.dim in
    if Array.length b <> n then invalid_arg "Wiedemann.solve: bad rhs";
    let bb = Bb.instrument bb in
    let keep = kept bb in
    Lv.run ~ns:"wiedemann" ~op:"solve" ?retries ?card_s ?deadline_ns ~n
    @@ fun ~attempt:_ ~kind:_ ~card_s ->
    let u = Lv.sample_vec st ~card_s n in
    let basis, f = generator ~keep bb ~u ~b in
    let deg = Array.length f - 1 in
    if deg = 0 then Rt.Reject O.Low_degree
    else if F.is_zero f.(0) then
      Lv.singular ~apply:(Bb.apply bb) (cayley_hamilton_sum ~basis bb f ~deg b)
    else
      Lv.verified (Bb.apply bb) (cayley_hamilton_solution ~basis bb f ~deg b) b

  (* P as a black box: the record's apply/transpose/ops lifted into the
     {!Kp_matrix.Blackbox} algebra (forcing the lazy op count exactly where
     the legacy code computed it eagerly) *)
  let precond_blackbox (p : F.t Pc.t) =
    {
      Bb.dim = p.Pc.n;
      apply_into = p.Pc.apply_into;
      apply_transpose = Some (fun v -> p.Pc.apply_transpose v);
      ops_per_apply = Lazy.force p.Pc.ops_per_apply;
    }

  (* Ã = A·P as a black-box composition (Theorem 2's preconditioning) —
     for the dense kind this is the legacy scale-then-Hankel pipeline,
     for the sparse kinds the composition stays O(n log n) per apply —
     instrumented as the one operator a routine iterates *)
  let preconditioned_blackbox (bb : Bb.t) p =
    Bb.instrument ~name:"preconditioned" (Bb.compose bb (precond_blackbox p))

  let precondition ~card_s kind st (bb : Bb.t) =
    let p = SP.build ~card_s ~n:bb.Bb.dim kind st in
    (p, preconditioned_blackbox bb p)

  (* every preconditioned routine runs the contract with [Auto] resolved
     to the sparse butterfly: the operand is a black box *)
  let kind_of precond = Pc.resolve ~sparse:true precond

  let solve_preconditioned ?retries ?card_s ?deadline_ns
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) b =
    Span.with_ "wiedemann.solve_preconditioned" @@ fun () ->
    check_dim "Wiedemann.solve_preconditioned" bb;
    let n = bb.Bb.dim in
    if Array.length b <> n then
      invalid_arg "Wiedemann.solve_preconditioned: bad rhs";
    let bb_i = Bb.instrument bb in
    let keep = kept bb in
    Lv.run ~ns:"wiedemann" ~op:"solve_preconditioned" ?retries ?card_s
      ?deadline_ns ~kind:(kind_of precond) ~n
    @@ fun ~attempt:_ ~kind ~card_s ->
    let p, a_tilde = precondition ~card_s kind st bb in
    let u = Lv.sample_vec st ~card_s n in
    let basis, f = generator ~keep a_tilde ~u ~b in
    let deg = Array.length f - 1 in
    if deg = 0 then Rt.Reject O.Low_degree
    else if F.is_zero f.(0) then
      (* w = P·Ãᵏ⁻¹·h(Ã)·b, checked against A itself *)
      Lv.singular ~apply:(Bb.apply bb_i)
        (p.Pc.apply (cayley_hamilton_sum ~basis a_tilde f ~deg b))
    else begin
      (* y = Ã^{-1} b by Cayley–Hamilton on the minimum polynomial, read
         off the kept Krylov basis *)
      let y = cayley_hamilton_solution ~basis a_tilde f ~deg b in
      (* x = P·y solves A·x = b *)
      Lv.verified (Bb.apply bb_i) (p.Pc.apply y) b
    end

  type precomp = { op : Bb.t; p : F.t Pc.t; f : F.t array; det_p : F.t }

  let det_of_precomp pc =
    let det_tilde =
      if pc.op.Bb.dim land 1 = 0 then pc.f.(0) else F.neg pc.f.(0)
    in
    F.div det_tilde pc.det_p

  (* One randomized evaluation of the b-independent prefix: draw P, u, v
     (and, with [~certify], a second projection u′), run one Krylov pass
     of Ã = A·P and Berlekamp–Massey, and classify.  λ | f yields the
     kernel vector P·Ãᵏ⁻¹·h(Ã)·v, checked against A; a degree below n is
     a plain retry.  [~certify] adds the certificates of a cached prefix:
     f monic and generating the u′ projection of the same pass, det P
     equal on two evaluations. *)
  let evaluate ~certify ~accept st (bb : Bb.t) ~kind ~card_s =
    let n = bb.Bb.dim in
    let p, a_tilde = precondition ~card_s kind st bb in
    let u = Lv.sample_vec st ~card_s n in
    let v = Lv.sample_vec st ~card_s n in
    let us = if certify then [| u; Lv.sample_vec st ~card_s n |] else [| u |] in
    let seqs, _, f = sequences_and_generator a_tilde ~us ~b:v in
    let deg = Array.length f - 1 in
    if deg >= 1 && F.is_zero f.(0) then
      (* λ divides the sequence's minimum polynomial: any degree yields
         the kernel vector *)
      Lv.singular ~apply:(Bb.apply bb)
        (p.Pc.apply (cayley_hamilton_sum a_tilde f ~deg v))
    else if deg < n then
      (* full degree not reached without a zero root: inconclusive *)
      Rt.Reject O.Low_degree
    else if certify && not (F.equal f.(n) F.one && BM.generates f seqs.(1))
    then Rt.Reject (O.Fault "krylov recurrence check failed")
    else
      match Lv.det_p ~twice:certify p with
      | Error reason -> Rt.Reject reason
      | Ok det_p -> Rt.Accept (accept { op = bb; p; f; det_p })

  (* a corrupted black-box apply can yield a self-consistent Krylov
     sequence of a perturbed operator, so det takes the contract's two
     agreeing evaluations *)
  let det ?retries ?card_s ?deadline_ns ?(precond = Pc.default_choice ()) st
      (bb : Bb.t) =
    Span.with_ "wiedemann.det" @@ fun () ->
    check_dim "Wiedemann.det" bb;
    Lv.det ~ns:"wiedemann" ?retries ?card_s ?deadline_ns ~kind:(kind_of precond)
      ~n:bb.Bb.dim
    @@ fun ~attempt:_ ~kind ~card_s () ->
    evaluate ~certify:false ~accept:det_of_precomp st bb ~kind ~card_s

  let precompute ?retries ?card_s ?deadline_ns
      ?(precond = Pc.default_choice ()) st (bb : Bb.t) =
    Span.with_ "wiedemann.precompute" @@ fun () ->
    check_dim "Wiedemann.precompute" bb;
    Lv.run ~ns:"wiedemann" ~op:"precompute" ?retries ?card_s ?deadline_ns
      ~kind:(kind_of precond) ~n:bb.Bb.dim
    @@ fun ~attempt:_ -> evaluate ~certify:true ~accept:Fun.id st bb

  (* each right-hand side composes its own Ã around the cached operator
     and network — a composition owns one buffer, so serves running on
     several domains must not share one — then Cayley–Hamilton's n − 1
     applies and x = P·y *)
  let apply_precomp pc b =
    let n = pc.op.Bb.dim in
    if Array.length b <> n then invalid_arg "Wiedemann.apply_precomp: bad rhs";
    let a_tilde = preconditioned_blackbox pc.op pc.p in
    pc.p.Pc.apply (cayley_hamilton_solution a_tilde pc.f ~deg:n b)
end
