module Make (F : Kp_field.Field_intf.FIELD_CORE) = struct
  module M = Kp_matrix.Dense.Core (F)

  type mul = M.t -> M.t -> M.t

  let columns ~mul (a : M.t) v m =
    let n = a.M.rows in
    if Array.length v <> n then invalid_arg "Krylov.columns: bad vector";
    if m < 1 then invalid_arg "Krylov.columns: m < 1";
    (* V holds columns v, Av, ..., A^{c-1}v; P holds A^{c} where c doubles *)
    let v0 = M.init n 1 (fun i _ -> v.(i)) in
    let rec grow vmat power cols =
      if cols >= m then vmat
      else begin
        let extension = mul power vmat in
        let new_cols = min m (2 * cols) in
        let combined =
          M.init n new_cols (fun i j ->
              if j < cols then M.get vmat i j else M.get extension i (j - cols))
        in
        if new_cols >= m then combined
        else grow combined (mul power power) new_cols
      end
    in
    grow v0 a 1

  let doubling_powers ~mul (a : M.t) m =
    (* exactly the squarings [columns] performs on its way to m columns:
       A^{2^0}, A^{2^1}, … while the column count is still below m.
       [mul] carries the backend: the solver passes Dense.Make's
       kernel-dispatched product (word-level GF(p)/GF(2) loops), while
       circuit and counting instantiations pass the balanced Core product. *)
    let rec go acc power cols =
      if cols >= m then List.rev acc
      else go (power :: acc) (mul power power) (2 * cols)
    in
    Array.of_list (go [] a 1)

  let columns_sequential (a : M.t) v m =
    let n = a.M.rows in
    let out = M.make n m in
    let cur = ref (Array.copy v) in
    for j = 0 to m - 1 do
      for i = 0 to n - 1 do
        M.set out i j !cur.(i)
      done;
      if j < m - 1 then cur := M.matvec a !cur
    done;
    out

  let sequence ~u k = M.vecmat u k

  let combination (k : M.t) c =
    if Array.length c <> k.M.cols then invalid_arg "Krylov.combination";
    (* Σ_j c_j·K(·,j) is exactly K·c — reuse the balanced-depth matvec *)
    M.matvec k c
end
