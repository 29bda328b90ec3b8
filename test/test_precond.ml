(* The pluggable preconditioner layer (lib/precond):
   - registry/selection contract (names, resolution, demotion schedule)
   - dense kind: bit-identity with the legacy Hankel·Diagonal draw stream
     and arithmetic it replaced
   - sparse butterfly and extension-field kinds: the record is internally
     consistent (apply = dense materialisation, transpose, det = Gauss det)
     and invertible by construction
   - end-to-end: every kind solves through Solver and Wiedemann *)

module Pc = Kp_precond.Precond
module F = Kp_field.Fields.Gf_97
module CK = Kp_poly.Conv.Karatsuba (F)
module SP = Kp_precond.Precond.Make (F) (CK)
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module S = Kp_core.Solver.Make (F) (CK)
module W = Kp_core.Wiedemann.Make (F)
module Bb = Kp_matrix.Blackbox.Make (F)

let st0 seed = Random.State.make [| 0x5ca1ab1e; seed |]
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 F.equal a b

let charpoly ~n d = S.charpoly_for_field ~n ~n d

(* ---- registry and selection ---- *)

let test_registry () =
  check_int "three kinds" 3 (List.length Pc.all_kinds);
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "kind_of_string roundtrips %s" (Pc.kind_name k))
        true
        (Pc.kind_of_string (Pc.kind_name k) = Some k);
      check_bool "choice_of_string roundtrips forced" true
        (Pc.choice_of_string (Pc.kind_name k) = Some (Pc.Forced k)))
    Pc.all_kinds;
  check_bool "auto roundtrips" true (Pc.choice_of_string "auto" = Some Pc.Auto);
  check_bool "junk is None" true (Pc.choice_of_string "nonesuch" = None);
  check_bool "auto resolves dense for dense engines" true
    (Pc.resolve Pc.Auto = Pc.Dense_hd);
  check_bool "auto resolves sparse for black boxes" true
    (Pc.resolve ~sparse:true Pc.Auto = Pc.Sparse_butterfly);
  check_bool "forced wins over sparse hint" true
    (Pc.resolve ~sparse:true (Pc.Forced Pc.Dense_hd) = Pc.Dense_hd)

let test_demotion_schedule () =
  let retries = 10 in
  (* first half of the budget keeps the requested kind, the second half
     falls back to the dense floor; dense itself never moves *)
  for attempt = 1 to retries + 1 do
    let expect =
      if 2 * attempt > retries + 1 then Pc.Dense_hd else Pc.Sparse_butterfly
    in
    check_bool
      (Printf.sprintf "attempt %d" attempt)
      true
      (Pc.kind_for_attempt ~retries ~attempt Pc.Sparse_butterfly = expect);
    check_bool "dense is the floor" true
      (Pc.kind_for_attempt ~retries ~attempt Pc.Dense_hd = Pc.Dense_hd)
  done

(* ---- dense kind: bit-identity with the legacy draw stream ---- *)

let test_dense_bit_identity () =
  let n = 9 and card_s = 4096 in
  let st_legacy = st0 21 and st_new = st0 21 in
  (* the code this layer replaced drew h (2n-1 samples) then d (n non-zero
     samples with the <=100-retry discipline) *)
  let h = Array.init ((2 * n) - 1) (fun _ -> F.sample st_legacy ~card_s) in
  let d = Array.init n (fun _ -> SP.sample_nonzero st_legacy ~card_s) in
  let p = SP.build ~card_s ~n Pc.Dense_hd st_new in
  check_bool "kind" true (p.Pc.kind = Pc.Dense_hd);
  (* identical RNG consumption: the next draw agrees on both streams *)
  check_bool "draw streams stay in lockstep" true
    (F.equal (F.sample st_legacy ~card_s) (F.sample st_new ~card_s));
  (* (H·D)_{ij} = h_{i+j}·d_j, row-major *)
  let dense = p.Pc.dense () in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (F.equal dense.((i * n) + j) (F.mul h.(i + j) d.(j))) then
        ok := false
    done
  done;
  check_bool "dense materialisation = H·D" true !ok;
  check_bool "det = det_hd of the same draws" true
    (F.equal (p.Pc.det ()) (SP.det_hd ~charpoly ~n ~h ~d));
  (* apply agrees with the materialised matrix *)
  let v = Array.init n (fun i -> F.of_int (i + 3)) in
  let pm = M.init n n (fun i j -> dense.((i * n) + j)) in
  check_bool "apply = dense matvec" true (farr_eq (p.Pc.apply v) (M.matvec pm v));
  check_bool "transpose = dense^T matvec" true
    (farr_eq (p.Pc.apply_transpose v) (M.matvec (M.transpose pm) v))

(* the dense kind's det(P) runs Gaussian elimination on the materialised
   Hankel; the paper's route reads det(H) off the Toeplitz mirror's
   charpoly.  Both are det(H)·det(D) of the same entries, so they must
   agree on every draw — singular Hankels (det 0) included *)
let test_elimination_det_matches_charpoly () =
  let agree what ~n ~h ~d =
    check_bool
      (Printf.sprintf "%s n=%d: elimination = charpoly det_hd" what n)
      true
      (F.equal (SP.det_hd_elimination ~n ~h ~d) (SP.det_hd ~charpoly ~n ~h ~d))
  in
  let singular = ref 0 in
  List.iter
    (fun n ->
      (* random draws; card_s = 2 makes singular Hankels common *)
      List.iter
        (fun card_s ->
          for seed = 1 to 6 do
            let st = st0 ((1000 * n) + (10 * seed) + card_s) in
            let h = Array.init ((2 * n) - 1) (fun _ -> F.sample st ~card_s) in
            let d = Array.init n (fun _ -> SP.sample_nonzero st ~card_s) in
            if F.is_zero (SP.det_hd_elimination ~n ~h ~d) then incr singular;
            agree (Printf.sprintf "card_s=%d seed=%d" card_s seed) ~n ~h ~d
          done)
        [ 2; 4096 ];
      (* structured singular Hankels: all zeros, and h_k = r^k (rank 1) *)
      let d = Array.init n (fun i -> F.of_int (i + 1)) in
      agree "zero Hankel" ~n ~h:(Array.make ((2 * n) - 1) F.zero) ~d;
      let r = F.of_int 5 in
      let h = Array.make ((2 * n) - 1) F.one in
      for k = 1 to (2 * n) - 2 do
        h.(k) <- F.mul h.(k - 1) r
      done;
      agree "rank-1 Hankel" ~n ~h ~d;
      if n >= 2 then
        check_bool "rank-1 Hankel is singular" true
          (F.is_zero (SP.det_hd_elimination ~n ~h ~d)))
    [ 1; 2; 3; 5; 8; 12 ];
  check_bool
    (Printf.sprintf "random draws hit singular Hankels (%d)" !singular)
    true (!singular > 0)

let test_dense_choice_is_default_path () =
  (* forcing dense must be indistinguishable from the default on dense
     inputs: same answer and the same number of randomized attempts *)
  let n = 10 in
  let st1 = st0 22 and st2 = st0 22 in
  let a1 = M.random_nonsingular st1 n in
  let a2 = M.random_nonsingular st2 n in
  let b1 = Array.init n (fun i -> F.of_int (i + 1)) in
  match
    ( S.solve st1 a1 b1,
      S.solve ~precond:(Pc.Forced Pc.Dense_hd) st2 a2 (Array.copy b1) )
  with
  | Ok (x1, r1), Ok (x2, r2) ->
    check_bool "same solution" true (farr_eq x1 x2);
    check_int "same attempt count" r1.S.O.attempts r2.S.O.attempts
  | _ -> Alcotest.fail "dense solve failed"

(* ---- structured kinds: record self-consistency ---- *)

let record_consistent name (p : F.t Pc.t) =
  let n = p.Pc.n in
  let dense = p.Pc.dense () in
  let pm = M.init n n (fun i j -> dense.((i * n) + j)) in
  let v = Array.init n (fun i -> F.of_int ((17 * i) + 5)) in
  check_bool (name ^ ": apply = dense matvec") true
    (farr_eq (p.Pc.apply v) (M.matvec pm v));
  check_bool (name ^ ": transpose = dense^T matvec") true
    (farr_eq (p.Pc.apply_transpose v) (M.matvec (M.transpose pm) v));
  let gdet = G.det (G.M.init n n (fun i j -> dense.((i * n) + j))) in
  check_bool (name ^ ": det = Gauss det of dense") true
    (F.equal (p.Pc.det ()) gdet);
  check_bool (name ^ ": invertible by construction") true
    (not (F.is_zero gdet));
  check_bool (name ^ ": ops_per_apply > 0") true
    (Lazy.force p.Pc.ops_per_apply > 0)

let test_butterfly_consistent () =
  List.iter
    (fun n ->
      let st = st0 (30 + n) in
      let p = SP.build ~card_s:4096 ~n Pc.Sparse_butterfly st in
      check_bool "kind" true (p.Pc.kind = Pc.Sparse_butterfly);
      record_consistent (Printf.sprintf "butterfly n=%d" n) p)
    [ 1; 2; 5; 8; 13 ]

(* The butterfly as it was drawn and applied before its coefficients moved
   into flat per-layer arrays: d, then per layer (strides 1, 2, 4, …), per
   pair in block order, (a, b, c) with dd = (1 + b·c)/a, each pair kept as
   a 6-tuple and applied one scalar exchange at a time. *)
let reference_butterfly ~card_s ~n st =
  let d = Array.init n (fun _ -> SP.sample_nonzero st ~card_s) in
  let layers = ref [] and s = ref 1 in
  while !s < n do
    let step = !s in
    let pairs = ref [] and bstart = ref 0 in
    while !bstart < n do
      for i = !bstart to min (!bstart + step) n - 1 do
        if i + step < n then begin
          let a = SP.sample_nonzero st ~card_s in
          let b = F.sample st ~card_s in
          let c = F.sample st ~card_s in
          let dd = F.div (F.add F.one (F.mul b c)) a in
          pairs := (i, i + step, a, b, c, dd) :: !pairs
        end
      done;
      bstart := !bstart + (2 * step)
    done;
    layers := List.rev !pairs :: !layers;
    s := 2 * step
  done;
  let layers = List.rev !layers in
  let apply v =
    let w = Array.init n (fun i -> F.mul d.(i) v.(i)) in
    List.iter
      (List.iter (fun (i, j, a, b, c, dd) ->
           let u = w.(i) and v = w.(j) in
           w.(i) <- F.add (F.mul a u) (F.mul b v);
           w.(j) <- F.add (F.mul c u) (F.mul dd v)))
      layers;
    w
  in
  let apply_transpose v =
    let w = Array.copy v in
    List.iter
      (List.iter (fun (i, j, a, b, c, dd) ->
           let u = w.(i) and v = w.(j) in
           w.(i) <- F.add (F.mul a u) (F.mul c v);
           w.(j) <- F.add (F.mul b u) (F.mul dd v)))
      (List.rev layers);
    Array.init n (fun i -> F.mul d.(i) w.(i))
  in
  let det () =
    List.fold_left
      (List.fold_left (fun acc (_, _, a, b, c, dd) ->
           F.mul acc (F.sub (F.mul a dd) (F.mul b c))))
      F.one layers
    |> F.mul (Array.fold_left F.mul F.one d)
  in
  (apply, apply_transpose, det)

(* the flat-array butterfly draws the same stream and computes the same
   products as the reference, and its kernel applies agree with its own
   dense materialisation *)
let test_butterfly_matches_reference () =
  List.iter
    (fun n ->
      let card_s = 4096 in
      let st_ref = st0 (70 + n) and st_new = st0 (70 + n) in
      let ref_apply, ref_transpose, ref_det =
        reference_butterfly ~card_s ~n st_ref
      in
      let p = SP.build ~card_s ~n Pc.Sparse_butterfly st_new in
      let what fmt = Printf.sprintf ("butterfly n=%d: " ^^ fmt) n in
      check_bool (what "RNG state equals the reference loop's") true
        (st_ref = st_new);
      check_bool (what "draw streams stay in lockstep") true
        (F.equal (F.sample st_ref ~card_s) (F.sample st_new ~card_s));
      let v = Array.init n (fun i -> F.of_int ((31 * i) + 7)) in
      check_bool (what "apply = reference") true
        (farr_eq (p.Pc.apply v) (ref_apply v));
      check_bool (what "apply_transpose = reference") true
        (farr_eq (p.Pc.apply_transpose v) (ref_transpose v));
      check_bool (what "det = reference") true (F.equal (p.Pc.det ()) (ref_det ()));
      let dense = p.Pc.dense () in
      let pm = M.init n n (fun i j -> dense.((i * n) + j)) in
      check_bool (what "apply = dense matvec") true
        (farr_eq (p.Pc.apply v) (M.matvec pm v));
      check_bool (what "apply_transpose = dense^T matvec") true
        (farr_eq (p.Pc.apply_transpose v) (M.matvec (M.transpose pm) v)))
    [ 1; 2; 3; 5; 100; 1000 ]

(* the butterfly's layers, whose dd come from one inversion per layer,
   equal the per-pair division's: the same draws of a, b and c in pair
   order, the same dd = (1 + b·c)/a and the same RNG state afterwards,
   over fields of every kernel family and Q *)
let batched_layers (type a) ~ns (module Fx : Kp_field.Field_intf.FIELD with type t = a)
    () =
  let module Cx = Kp_poly.Conv.Karatsuba (Fx) in
  let module SPx = Kp_precond.Precond.Make (Fx) (Cx) in
  let card_s = 4096 in
  List.iter
    (fun n ->
      let rec strides s = if s < n then s :: strides (2 * s) else [] in
      List.iter
        (fun stride ->
          let what fmt =
            Printf.sprintf ("%s n=%d s=%d: " ^^ fmt) Fx.name n stride
          in
          let st_new = st0 (n + stride) and st_ref = st0 (n + stride) in
          let l = SPx.butterfly_layer ~card_s ~n st_new stride in
          let pairs = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
          check_int (what "pairs") pairs (Array.length l.Kp_kernel.Kernel_intf.dd);
          for k = 0 to pairs - 1 do
            let a = SPx.sample_nonzero st_ref ~card_s in
            let b = Fx.sample st_ref ~card_s in
            let c = Fx.sample st_ref ~card_s in
            let dd = Fx.div (Fx.add Fx.one (Fx.mul b c)) a in
            check_bool (what "pair %d equals the division's" k) true
              (Fx.equal a l.a.(k) && Fx.equal b l.b.(k) && Fx.equal c l.c.(k)
              && Fx.equal dd l.dd.(k))
          done;
          check_bool (what "RNG state") true (st_new = st_ref))
        (strides 1 @ [ 3 ]))
    ns

let test_butterfly_is_cheap () =
  (* the sparse track's payoff: ops per apply is O(n log n), far below the
     dense Hankel convolution cost for the same n *)
  let n = 64 in
  let st = st0 40 in
  let p = SP.build ~card_s:4096 ~n Pc.Sparse_butterfly st in
  let sparse_ops = Lazy.force p.Pc.ops_per_apply in
  let dense_ops = SP.hankel_ops_per_apply n + n in
  check_bool
    (Printf.sprintf "butterfly %d ops << dense %d ops" sparse_ops dense_ops)
    true
    (sparse_ops * 2 < dense_ops)

let test_ext_field_gf2 () =
  (* the GF(2) track: card(S) escalation above q routes through GF(2^k) *)
  let module F2 = Kp_field.Fields.Gf2 in
  let module C2 = Kp_poly.Conv.Karatsuba (F2) in
  let module SP2 = Kp_precond.Precond.Make (F2) (C2) in
  let module M2 = Kp_matrix.Dense.Make (F2) in
  let module G2 = Kp_matrix.Gauss.Make (F2) in
  let ceiling =
    Pc.escalation_ceiling ~cardinality:F2.cardinality
      ~characteristic:F2.characteristic
  in
  check_bool "ceiling lifts to 2^8" true (ceiling Pc.Ext_field = Some 256);
  check_bool "dense ceiling stays at q" true (ceiling Pc.Dense_hd = Some 2);
  List.iter
    (fun (n, card_s) ->
      let st = st0 (50 + n + card_s) in
      let p = SP2.build ~card_s ~n Pc.Ext_field st in
      check_bool "kind" true (p.Pc.kind = Pc.Ext_field);
      let dense = p.Pc.dense () in
      let pm = M2.init n n (fun i j -> dense.((i * n) + j)) in
      let v = Array.init n (fun i -> if i land 1 = 0 then F2.one else F2.zero) in
      check_bool "apply = dense matvec" true
        (Array.for_all2 F2.equal (p.Pc.apply v) (M2.matvec pm v));
      check_bool "transpose = dense^T matvec" true
        (Array.for_all2 F2.equal
           (p.Pc.apply_transpose v)
           (M2.matvec (M2.transpose pm) v));
      let gdet = G2.det (G2.M.init n n (fun i j -> dense.((i * n) + j))) in
      check_bool "det = Gauss det" true (F2.equal (p.Pc.det ()) gdet);
      check_bool "invertible by construction" true (not (F2.is_zero gdet)))
    (* card_s = 2: degenerate butterfly over F itself; card_s = 16/256:
       genuine GF(2^4)/GF(2^8) chunk scalars, with and without a tail *)
    [ (6, 2); (8, 16); (12, 256); (16, 16) ]

(* apply_into into a dirty destination = apply = the dense
   materialisation's matvec, for every kind, twice from one record, with
   the source untouched.  GF(2) at card_s = 256 builds genuine GF(2^8)
   chunk scalars for the extension kind. *)
let apply_into_all_kinds (type a) name ~card_s
    (module Fx : Kp_field.Field_intf.FIELD with type t = a) () =
  let module Cx = Kp_poly.Conv.Karatsuba (Fx) in
  let module SPx = Kp_precond.Precond.Make (Fx) (Cx) in
  let module Mx = Kp_matrix.Dense.Make (Fx) in
  let same = Array.for_all2 Fx.equal in
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let st = st0 (70 + n) in
          let p = SPx.build ~card_s ~n kind st in
          let dense = p.Pc.dense () in
          let pm = Mx.init n n (fun i j -> dense.((i * n) + j)) in
          for round = 1 to 2 do
            let v = Array.init n (fun _ -> Fx.random st) in
            let v0 = Array.copy v in
            let dst = Array.init n (fun _ -> Fx.random st) in
            p.Pc.apply_into v dst;
            let ctx =
              Printf.sprintf "%s %s n=%d round %d" name (Pc.kind_name kind) n
                round
            in
            check_bool (ctx ^ ": apply_into = apply") true (same dst (p.Pc.apply v));
            check_bool (ctx ^ ": = dense matvec") true (same dst (Mx.matvec pm v));
            check_bool (ctx ^ ": source untouched") true (same v v0)
          done)
        [ 1; 7; 16; 19 ])
    Pc.all_kinds

(* the black-box iteration's apply: the butterfly's prepared network into
   a reused buffer allocates no heap word, on either C-stub backend and on
   the derived twin *)
let apply_into_allocates_nothing (type a) ~card_s
    (module Fx : Kp_field.Field_intf.FIELD with type t = a) () =
  let module SPx =
    Kp_precond.Precond.Make (Fx) (Kp_poly.Conv.Karatsuba (Fx)) in
  let words f = snd (Test_seeds.allocated_words f) in
  let n = 1000 in
  let st = st0 91 in
  let p = SPx.build ~card_s ~n Pc.Sparse_butterfly st in
  let v = Array.init n (fun _ -> Fx.random st) in
  let dst = Array.make n Fx.zero in
  p.Pc.apply_into v dst;
  let idle = words (fun () -> ()) in
  let used =
    words (fun () ->
        for _ = 1 to 1000 do
          p.Pc.apply_into v dst
        done)
  in
  Alcotest.(check (float 0.)) "1000 applies at n = 1000: no heap words" idle used

(* ---- end-to-end: every kind solves ---- *)

let test_solver_all_kinds () =
  List.iter
    (fun kind ->
      let st = st0 60 in
      let n = 12 in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec a x_true in
      match S.solve ~precond:(Pc.Forced kind) st a b with
      | Ok (x, _) ->
        check_bool (Pc.kind_name kind ^ " solves") true (farr_eq x x_true)
      | Error e -> Alcotest.fail (Pc.kind_name kind ^ ": " ^ S.O.error_to_string e))
    Pc.all_kinds

let test_wiedemann_all_kinds () =
  List.iter
    (fun kind ->
      let st = st0 61 in
      let n = 12 in
      let a = M.random_nonsingular st n in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = M.matvec a x_true in
      match W.solve_preconditioned ~precond:(Pc.Forced kind) st (Bb.of_dense a) b with
      | Ok (x, _) ->
        check_bool (Pc.kind_name kind ^ " bb-solves") true (farr_eq x x_true)
      | Error e ->
        Alcotest.fail (Pc.kind_name kind ^ ": " ^ W.O.error_to_string e))
    Pc.all_kinds

let test_det_all_kinds () =
  List.iter
    (fun kind ->
      let st = st0 62 in
      let n = 10 in
      let a = M.random_nonsingular st n in
      let expect = G.det (G.M.init n n (fun i j -> M.get a i j)) in
      match S.det ~precond:(Pc.Forced kind) st a with
      | Ok (d, _) ->
        check_bool (Pc.kind_name kind ^ " det") true (F.equal d expect)
      | Error e -> Alcotest.fail (Pc.kind_name kind ^ ": " ^ S.O.error_to_string e))
    Pc.all_kinds

let test_build_counters () =
  let before name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let b0 = before "precond.build.sparse" in
  let st = st0 63 in
  ignore (SP.build ~card_s:4096 ~n:8 Pc.Sparse_butterfly st);
  check_int "build ticks its per-kind counter" (b0 + 1)
    (before "precond.build.sparse")

let () =
  Alcotest.run "precond"
    [
      ( "registry",
        [
          Alcotest.test_case "names/resolution" `Quick test_registry;
          Alcotest.test_case "demotion schedule" `Quick test_demotion_schedule;
          Alcotest.test_case "build counters" `Quick test_build_counters;
        ] );
      ( "dense",
        [
          Alcotest.test_case "bit-identity with legacy draws" `Quick
            test_dense_bit_identity;
          Alcotest.test_case "forced dense = default path" `Quick
            test_dense_choice_is_default_path;
          Alcotest.test_case "elimination det = charpoly det_hd" `Quick
            test_elimination_det_matches_charpoly;
        ] );
      ( "structured",
        [
          Alcotest.test_case "butterfly record consistent" `Quick
            test_butterfly_consistent;
          Alcotest.test_case "butterfly ops << dense ops" `Quick
            test_butterfly_is_cheap;
          Alcotest.test_case "butterfly = reference draws and products" `Quick
            test_butterfly_matches_reference;
          Alcotest.test_case "batched layers = per-pair division" `Quick
            (fun () ->
              let small = [ 1; 2; 3; 61 ] in
              batched_layers ~ns:small (module Kp_field.Fields.Gf2) ();
              batched_layers ~ns:small (module Kp_field.Fields.Gf_97) ();
              batched_layers ~ns:(small @ [ 1000 ])
                (module Kp_field.Fields.Gf_ntt) ();
              batched_layers ~ns:small (module Kp_field.Fields.Gf2_16) ();
              batched_layers ~ns:small (module Kp_field.Fields.Q) ());
          Alcotest.test_case "ext-field GF(2) record consistent" `Quick
            test_ext_field_gf2;
          Alcotest.test_case "apply_into GF(p): all kinds" `Quick
            (apply_into_all_kinds "GF(p)" ~card_s:4096
               (module Kp_field.Fields.Gf_ntt));
          Alcotest.test_case "apply_into GF(2): all kinds" `Quick
            (apply_into_all_kinds "GF(2)" ~card_s:256
               (module Kp_field.Fields.Gf2));
          Alcotest.test_case "apply_into GF(p) twin: all kinds" `Quick
            (apply_into_all_kinds "GF(p) twin" ~card_s:4096
               (Test_seeds.twin (module Kp_field.Fields.Gf_ntt)));
          Alcotest.test_case "butterfly apply_into allocates nothing" `Quick
            (fun () ->
              apply_into_allocates_nothing ~card_s:(1 lsl 24)
                (module Kp_field.Fields.Gf_ntt) ();
              apply_into_allocates_nothing ~card_s:2
                (module Kp_field.Fields.Gf2) ();
              apply_into_allocates_nothing ~card_s:(1 lsl 24)
                (Test_seeds.twin (module Kp_field.Fields.Gf_ntt)) ());
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "solver: all kinds" `Quick test_solver_all_kinds;
          Alcotest.test_case "wiedemann: all kinds" `Quick
            test_wiedemann_all_kinds;
          Alcotest.test_case "det: all kinds" `Quick test_det_all_kinds;
        ] );
    ]
