(* Sparse/black-box linear algebra — the workload Wiedemann's method (§2)
   was made for.  The method only needs v ↦ Av, so it works on matrices
   given as *products of sparse factors* without ever forming the product;
   Gaussian elimination must materialise the (much denser) product and then
   suffers fill-in.

   A = S₁·S₂ with S₁, S₂ sparse non-singular (≈5 nonzeros/row each):
   the black box costs 2·nnz ops per application, while the explicit
   product has ~25 nonzeros/row and fills in during elimination.

   Run with:  dune exec examples/sparse_wiedemann.exe *)

module F = Kp_field.Fields.Gf_ntt
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module Sp = Kp_matrix.Sparse.Make (F)
module Bb = Kp_matrix.Blackbox.Make (F)
module W = Kp_core.Wiedemann.Make (F)

(* monotonic wall-clock timing straight off Kp_obs.Clock *)
let time f =
  let t0 = Kp_obs.Clock.now_s () in
  let x = f () in
  (x, Kp_obs.Clock.now_s () -. t0)

let () =
  let st = Kp_util.Rng.make 7 in
  print_endline "Black-box Wiedemann vs Gaussian elimination on A = S1·S2";
  print_endline "(S1, S2 sparse, ~5 nonzeros/row; times in seconds)\n";
  let t =
    Kp_util.Tables.create ~title:"solve A x = b, A given as a product of sparse factors"
      ~columns:[ "n"; "blackbox nnz"; "wiedemann (s)"; "gauss (s)"; "speedup"; "agree" ]
  in
  List.iter
    (fun n ->
      let density = 5.0 /. float_of_int n in
      let s1 = Sp.random_nonsingular st n ~density in
      let s2 = Sp.random_nonsingular st n ~density in
      let bb = Bb.compose (Bb.of_sparse s1) (Bb.of_sparse s2) in
      let x_true = Array.init n (fun _ -> F.random st) in
      let b = Bb.apply bb x_true in
      let xw = ref None in
      let _, tw =
        time (fun () ->
            xw := Option.map fst (Result.to_option (W.solve st bb b)))
      in
      (* elimination has to materialise the product first *)
      let xg = ref None in
      let _, tg =
        time (fun () ->
            let dense = M.mul (Sp.to_dense s1) (Sp.to_dense s2) in
            xg := G.solve dense b)
      in
      let agree =
        match (!xw, !xg) with
        | Some a, Some b -> Array.for_all2 F.equal a b
        | _ -> false
      in
      Kp_util.Tables.add_row t
        [
          string_of_int n;
          string_of_int (Sp.nnz s1 + Sp.nnz s2);
          Kp_util.Tables.fmt_float tw;
          Kp_util.Tables.fmt_float tg;
          Kp_util.Tables.fmt_float (tg /. tw);
          string_of_bool agree;
        ])
    [ 100; 200; 400; 800; 1600 ];
  Kp_util.Tables.print t;
  print_endline "Wiedemann touches only the factors (2·nnz per black-box call);";
  print_endline "elimination pays the dense product and its fill-in."
