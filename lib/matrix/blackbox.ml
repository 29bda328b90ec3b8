module Make (F : Kp_field.Field_intf.FIELD) = struct
  module M = Dense.Make (F)
  module S = Sparse.Make (F)

  type t = {
    dim : int;
    apply : F.t array -> F.t array;
    apply_transpose : (F.t array -> F.t array) option;
    ops_per_apply : int;
  }

  let of_dense (m : M.t) =
    if m.M.rows <> m.M.cols then invalid_arg "Blackbox.of_dense: non-square";
    {
      dim = m.M.rows;
      apply = M.matvec m;
      apply_transpose = Some (fun v -> M.vecmat v m);
      ops_per_apply = 2 * m.M.rows * m.M.cols;
    }

  let of_sparse s =
    if S.rows s <> S.cols s then invalid_arg "Blackbox.of_sparse: non-square";
    {
      dim = S.rows s;
      apply = S.matvec s;
      apply_transpose = Some (S.matvec_transpose s);
      ops_per_apply = 2 * S.nnz s;
    }

  let of_fun dim apply = { dim; apply; apply_transpose = None; ops_per_apply = 0 }

  let compose a b =
    if a.dim <> b.dim then invalid_arg "Blackbox.compose: dimension mismatch";
    {
      dim = a.dim;
      apply = (fun v -> a.apply (b.apply v));
      apply_transpose =
        (match (a.apply_transpose, b.apply_transpose) with
        | Some at, Some bt -> Some (fun v -> bt (at v))
        | _ -> None);
      ops_per_apply = a.ops_per_apply + b.ops_per_apply;
    }

  let scale_columns a d =
    if Array.length d <> a.dim then invalid_arg "Blackbox.scale_columns";
    let scale v = Array.init a.dim (fun i -> F.mul d.(i) v.(i)) in
    {
      dim = a.dim;
      apply = (fun v -> a.apply (scale v));
      apply_transpose =
        Option.map (fun at -> fun v -> scale (at v)) a.apply_transpose;
      ops_per_apply = a.ops_per_apply + a.dim;
    }

  let c_applies = Kp_obs.Counter.make "blackbox.applies"
  let c_ops = Kp_obs.Counter.make "blackbox.ops"

  let instrument ?name t =
    let named =
      Option.map
        (fun n -> Kp_obs.Counter.make ("blackbox." ^ n ^ ".applies"))
        name
    in
    let tick () =
      Kp_obs.Counter.incr c_applies;
      Kp_obs.Counter.add c_ops t.ops_per_apply;
      Option.iter Kp_obs.Counter.incr named
    in
    {
      t with
      apply =
        (fun v ->
          tick ();
          t.apply v);
      apply_transpose =
        Option.map
          (fun at v ->
            tick ();
            at v)
          t.apply_transpose;
    }

  let identity n =
    {
      dim = n;
      apply = Array.copy;
      apply_transpose = Some Array.copy;
      ops_per_apply = 0;
    }

  let to_dense t =
    let cols =
      Array.init t.dim (fun j ->
          let e = Array.make t.dim F.zero in
          e.(j) <- F.one;
          t.apply e)
    in
    M.init t.dim t.dim (fun i j -> cols.(j).(i))
end
