module Make (F : Kp_field.Field_intf.FIELD) = struct
  module M = Dense.Make (F)
  module S = Sparse.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)

  type t = {
    dim : int;
    apply_into : F.t array -> F.t array -> unit;
    apply_transpose : (F.t array -> F.t array) option;
    ops_per_apply : int;
  }

  let apply t v =
    let dst = Array.make t.dim F.zero in
    t.apply_into v dst;
    dst

  let of_dense (m : M.t) =
    if m.M.rows <> m.M.cols then invalid_arg "Blackbox.of_dense: non-square";
    let n = m.M.rows in
    let op = K.dense_prepare ~rows:n ~cols:n m.M.data in
    {
      dim = n;
      apply_into =
        (fun v dst ->
          if Array.length v <> n || Array.length dst <> n then
            invalid_arg "Blackbox.of_dense: dimension mismatch";
          K.dense_apply_into op ~src:v ~dst);
      apply_transpose = Some (fun v -> M.vecmat v m);
      ops_per_apply = 2 * n * n;
    }

  let of_sparse s =
    if S.rows s <> S.cols s then invalid_arg "Blackbox.of_sparse: non-square";
    let n = S.rows s in
    let row_ptr, cols, vals = S.csr s in
    let op = K.csr_prepare ~row_ptr ~cols ~vals in
    {
      dim = n;
      apply_into =
        (fun v dst ->
          if Array.length v <> n || Array.length dst <> n then
            invalid_arg "Blackbox.of_sparse: dimension mismatch";
          K.csr_apply_into op ~src:v ~dst);
      apply_transpose = Some (S.matvec_transpose s);
      ops_per_apply = 2 * S.nnz s;
    }

  let of_fun dim f =
    {
      dim;
      apply_into = (fun v dst -> Array.blit (f v) 0 dst 0 dim);
      apply_transpose = None;
      ops_per_apply = 0;
    }

  (* b writes the one intermediate buffer this composition owns, a reads
     it: sequential applies reuse it, concurrent ones would race *)
  let compose a b =
    if a.dim <> b.dim then invalid_arg "Blackbox.compose: dimension mismatch";
    let mid = Array.make a.dim F.zero in
    {
      dim = a.dim;
      apply_into =
        (fun v dst ->
          b.apply_into v mid;
          a.apply_into mid dst);
      apply_transpose =
        (match (a.apply_transpose, b.apply_transpose) with
        | Some at, Some bt -> Some (fun v -> bt (at v))
        | _ -> None);
      ops_per_apply = a.ops_per_apply + b.ops_per_apply;
    }

  let scale_columns a d =
    if Array.length d <> a.dim then invalid_arg "Blackbox.scale_columns";
    let n = a.dim in
    let scale_into v dst =
      K.pointwise_mul_into ~x:d ~xoff:0 ~y:v ~yoff:0 ~dst ~doff:0 ~len:n
    in
    let mid = Array.make n F.zero in
    {
      dim = n;
      apply_into =
        (fun v dst ->
          scale_into v mid;
          a.apply_into mid dst);
      apply_transpose =
        Option.map
          (fun at v ->
            let w = Array.make n F.zero in
            scale_into (at v) w;
            w)
          a.apply_transpose;
      ops_per_apply = a.ops_per_apply + n;
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
      apply_into =
        (fun v dst ->
          tick ();
          t.apply_into v dst);
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
      apply_into = (fun v dst -> Array.blit v 0 dst 0 n);
      apply_transpose = Some Array.copy;
      ops_per_apply = 0;
    }

  let to_dense t =
    let cols =
      Array.init t.dim (fun j ->
          let e = Array.make t.dim F.zero in
          e.(j) <- F.one;
          apply t e)
    in
    M.init t.dim t.dim (fun i j -> cols.(j).(i))
end
