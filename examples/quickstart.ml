(* Quickstart: solve a random non-singular system over GF(p) with the
   Kaltofen–Pan randomized solver, compute a determinant, certify a
   singular matrix, and invert via the Baur–Strassen route.

   Run with:  dune exec examples/quickstart.exe *)

module F = Kp_field.Fields.Gf_ntt
module C = Kp_poly.Conv.Karatsuba (F)
module M = Kp_matrix.Dense.Make (F)
module S = Kp_core.Solver.Make (F) (C)
module Inv = Kp_core.Inverse.Make (F) (C)

let () =
  let st = Kp_util.Rng.make 2024 in
  let n = 20 in
  Printf.printf "Kaltofen–Pan solver quickstart over %s, n = %d\n\n" F.name n;

  (* 1. solve a non-singular system *)
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  (match S.solve st a b with
  | Ok (x, report) ->
    let ok = Array.for_all2 F.equal x x_true in
    Printf.printf "solve:   recovered the planted solution: %b (attempts: %d)\n"
      ok report.S.O.attempts
  | Error _ -> print_endline "solve:   FAILED (unexpected)");

  (* 2. determinant, cross-checked against Gaussian elimination *)
  let module G = Kp_matrix.Gauss.Make (F) in
  (match S.det st a with
  | Ok (d, _) ->
    Printf.printf "det:     KP = %s, Gauss = %s, agree: %b\n" (F.to_string d)
      (F.to_string (G.det a))
      (F.equal d (G.det a))
  | Error _ -> print_endline "det:     FAILED (unexpected)");

  (* 3. singularity is proved, not guessed: a solve of a singular system
     comes back as Error (Singular { kernel = w; _ }) with w ≠ 0 and
     A·w = 0 checked, and a det reports that proof as Ok (0, report) *)
  let singular = M.random_of_rank st n ~rank:(n - 1) in
  (match S.solve st singular (Array.init n (fun _ -> F.random st)) with
  | Error (S.O.Singular { kernel; report }) ->
    Printf.printf
      "singular matrix: kernel vector w checked (A·w = 0: %b) on attempt %d\n"
      (Array.for_all F.is_zero (M.matvec singular kernel))
      report.S.O.attempts
  | Ok _ | Error _ -> print_endline "singular: FAILED");
  (match S.det st singular with
  | Ok (d, _) -> Printf.printf "det(singular matrix) = %s\n" (F.to_string d)
  | Error _ -> print_endline "det:     FAILED");

  (* 4. inverse via the Theorem-6 circuit (Baur–Strassen on the determinant
     straight-line program) — small n because the whole algorithm is traced
     into an explicit circuit first *)
  let n_inv = 6 in
  let a_small = M.random_nonsingular st n_inv in
  (match Inv.inverse st a_small with
  | Ok (inv, _) ->
    let id = M.mul a_small inv in
    Printf.printf "inverse: A·A⁻¹ = I (n = %d): %b\n" n_inv
      (M.equal id (M.identity n_inv))
  | Error e -> Printf.printf "inverse: FAILED: %s\n" (Inv.O.error_to_string e));

  print_newline ();
  print_endline "All results above are Las Vegas: every answer was verified";
  print_endline "(A·x = b re-checked, generator checked against the sequence,";
  print_endline "A·A⁻¹ = I re-multiplied) before being returned."
