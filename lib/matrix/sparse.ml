module Make (F : Kp_field.Field_intf.FIELD) = struct
  module M = Dense.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)

  type t = {
    rows : int;
    cols : int;
    row_ptr : int array; (* length rows+1 *)
    col_idx : int array; (* length nnz, sorted within each row *)
    values : F.t array;
  }

  let rows t = t.rows
  let cols t = t.cols
  let nnz t = Array.length t.values
  let csr t = (t.row_ptr, t.col_idx, t.values)

  let of_triplets ~rows ~cols triplets =
    List.iter
      (fun (i, j, _) ->
        if i < 0 || i >= rows || j < 0 || j >= cols then
          invalid_arg "Sparse.of_triplets: index out of range")
      triplets;
    (* sum duplicates via a per-row table, then pack *)
    let tables = Array.init rows (fun _ -> Hashtbl.create 4) in
    List.iter
      (fun (i, j, v) ->
        let tbl = tables.(i) in
        let cur = Option.value (Hashtbl.find_opt tbl j) ~default:F.zero in
        Hashtbl.replace tbl j (F.add cur v))
      triplets;
    let row_entries =
      Array.map
        (fun tbl ->
          Hashtbl.fold (fun j v acc -> if F.is_zero v then acc else (j, v) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b))
        tables
    in
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 row_entries in
    let row_ptr = Array.make (rows + 1) 0 in
    let col_idx = Array.make total 0 in
    let values = Array.make total F.zero in
    let k = ref 0 in
    Array.iteri
      (fun i entries ->
        row_ptr.(i) <- !k;
        List.iter
          (fun (j, v) ->
            col_idx.(!k) <- j;
            values.(!k) <- v;
            incr k)
          entries)
      row_entries;
    row_ptr.(rows) <- !k;
    { rows; cols; row_ptr; col_idx; values }

  let get t i j =
    let lo = t.row_ptr.(i) and hi = t.row_ptr.(i + 1) in
    let rec bsearch lo hi =
      if lo >= hi then F.zero
      else begin
        let mid = (lo + hi) / 2 in
        if t.col_idx.(mid) = j then t.values.(mid)
        else if t.col_idx.(mid) < j then bsearch (mid + 1) hi
        else bsearch lo mid
      end
    in
    bsearch lo hi

  let to_dense t =
    let m = M.make t.rows t.cols in
    for i = 0 to t.rows - 1 do
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        M.set m i t.col_idx.(k) t.values.(k)
      done
    done;
    m

  let of_dense (m : M.t) =
    let triplets = ref [] in
    for i = 0 to m.M.rows - 1 do
      for j = 0 to m.M.cols - 1 do
        let v = M.get m i j in
        if not (F.is_zero v) then triplets := (i, j, v) :: !triplets
      done
    done;
    of_triplets ~rows:m.M.rows ~cols:m.M.cols !triplets

  (* one kernel call per product — the same sequential per-row
     accumulation as the historical scalar loop *)
  let matvec t v =
    if Array.length v <> t.cols then invalid_arg "Sparse.matvec: dimension mismatch";
    let out = Array.make t.rows F.zero in
    K.csr_matvec_into ~row_ptr:t.row_ptr ~cols:t.col_idx ~vals:t.values
      ~row_lo:0 ~row_hi:t.rows ~x:v ~dst:out;
    out

  let matvec_transpose t v =
    if Array.length v <> t.rows then
      invalid_arg "Sparse.matvec_transpose: dimension mismatch";
    let out = Array.make t.cols F.zero in
    for i = 0 to t.rows - 1 do
      if not (F.is_zero v.(i)) then
        for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
          let j = t.col_idx.(k) in
          out.(j) <- F.add out.(j) (F.mul t.values.(k) v.(i))
        done
    done;
    out

  let random_nonzero st =
    let rec go () =
      let x = F.random st in
      if F.is_zero x then go () else x
    in
    go ()

  let random st rows cols ~density =
    if density < 0. || density > 1. then invalid_arg "Sparse.random: density";
    let triplets = ref [] in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if Random.State.float st 1.0 < density then
          triplets := (i, j, random_nonzero st) :: !triplets
      done
    done;
    of_triplets ~rows ~cols !triplets

  let random_nonsingular st n ~density =
    let triplets = ref [] in
    (* invertible diagonal *)
    for i = 0 to n - 1 do
      triplets := (i, i, random_nonzero st) :: !triplets
    done;
    (* strictly upper triangular filling *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Random.State.float st 1.0 < density then
          triplets := (i, j, random_nonzero st) :: !triplets
      done
    done;
    (* random row permutation *)
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    of_triplets ~rows:n ~cols:n
      (List.map (fun (i, j, v) -> (perm.(i), j, v)) !triplets)
end
