module Make (F : Kp_field.Field_intf.FIELD) = struct
  module M = Kp_matrix.Dense.Make (F)
  module Sp = Kp_matrix.Sparse.Make (F)
  module Bb = Kp_matrix.Blackbox.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)
  module Pool = Kp_util.Pool
  module Cnt = Kp_obs.Counter
  module Span = Kp_obs.Span

  let c_plans = Cnt.make "shard.plans"
  let c_applies = Cnt.make "shard.applies"
  let c_t_applies = Cnt.make "shard.transpose.applies"
  let c_muls = Cnt.make "shard.muls"
  let c_fanouts = Cnt.make "shard.fanouts"

  type payload =
    | Dense of { data : F.t array; cols : int }
        (* the matrix's own data array — row ranges make the split
           zero-copy, the kernel's matvec_into being row-ranged *)
    | Csr of { row_ptr : int array; col_idx : int array; values : F.t array }
        (* per-shard slice, row_ptr rebased so local row r spans
           [row_ptr.(r), row_ptr.(r+1)) of this shard's arrays *)

  type shard = {
    row_lo : int;
    row_hi : int;
    payload : payload;
    tbuf : F.t array; (* length n: this shard's transpose partial sums *)
  }

  type t = {
    n : int;
    shards : shard array;
    pool : Pool.t option;
    ops : int;
  }

  let auto_shards ?pool () = match pool with None -> 1 | Some p -> Pool.size p

  (* contiguous balanced split: shard i owns rows [i·n/s, (i+1)·n/s) —
     ragged n and s > n (trailing empty shards) fall out of the formula *)
  let range ~n ~s i = (i * n / s, (i + 1) * n / s)

  let check_shards op = function
    | s when s >= 1 -> s
    | _ -> invalid_arg (op ^ ": shards < 1")

  let of_dense ?pool ?shards (m : M.t) =
    if m.M.rows <> m.M.cols then invalid_arg "Sharded.of_dense: non-square";
    let n = m.M.rows in
    let s =
      check_shards "Sharded.of_dense"
        (match shards with Some s -> s | None -> auto_shards ?pool ())
    in
    Cnt.incr c_plans;
    let mk i =
      let row_lo, row_hi = range ~n ~s i in
      { row_lo; row_hi;
        payload = Dense { data = m.M.data; cols = n };
        tbuf = (if s = 1 then [||] else Array.make n F.zero) }
    in
    { n; shards = Array.init s mk; pool; ops = 2 * n * n }

  let of_sparse ?pool ?shards (sp : Sp.t) =
    if Sp.rows sp <> Sp.cols sp then invalid_arg "Sharded.of_sparse: non-square";
    let n = Sp.rows sp in
    let s =
      check_shards "Sharded.of_sparse"
        (match shards with Some s -> s | None -> auto_shards ?pool ())
    in
    Cnt.incr c_plans;
    let row_ptr, col_idx, values = Sp.csr sp in
    let mk i =
      let row_lo, row_hi = range ~n ~s i in
      let base = row_ptr.(row_lo) in
      let len = row_ptr.(row_hi) - base in
      { row_lo; row_hi;
        payload =
          Csr
            {
              row_ptr =
                Array.init
                  (row_hi - row_lo + 1)
                  (fun r -> row_ptr.(row_lo + r) - base);
              col_idx = Array.sub col_idx base len;
              values = Array.sub values base len;
            };
        tbuf = (if s = 1 then [||] else Array.make n F.zero) }
    in
    { n; shards = Array.init s mk; pool; ops = 2 * Sp.nnz sp }

  let dim t = t.n
  let shard_count t = Array.length t.shards
  let shard_ranges t = Array.map (fun sh -> (sh.row_lo, sh.row_hi)) t.shards
  let ops_per_apply t = t.ops

  (* run one thunk per shard as a fork-join region (sequentially without a
     pool or when there is nothing to fan out) *)
  let fan_out t thunks =
    match t.pool with
    | Some pool when Array.length t.shards > 1 ->
      Cnt.incr c_fanouts;
      Pool.region_run pool (Array.to_list thunks)
    | _ -> Array.iter (fun f -> f ()) thunks

  (* forward apply of one shard: one kernel call writing exactly its rows
     of dst, with the per-row accumulation the unsharded matvec uses (a
     CSR shard's local row r lands at dst.(row_lo + r)) *)
  let shard_apply sh v dst =
    match sh.payload with
    | Dense { data; cols } ->
      K.matvec_into ~m:data ~cols ~row_lo:sh.row_lo ~row_hi:sh.row_hi ~x:v ~dst
    | Csr { row_ptr; col_idx; values } ->
      K.csr_matvec_into ~row_ptr ~cols:col_idx ~vals:values ~row_lo:0
        ~row_hi:(sh.row_hi - sh.row_lo) ~x:v ~dst ~doff:sh.row_lo

  let apply_into t v dst =
    if Array.length v <> t.n || Array.length dst <> t.n then
      invalid_arg "Sharded.apply_into: dimension mismatch";
    Cnt.incr c_applies;
    Span.with_ "shard.apply" @@ fun () ->
    if Array.length t.shards = 1 then shard_apply t.shards.(0) v dst
    else fan_out t (Array.map (fun sh -> fun () -> shard_apply sh v dst) t.shards)

  let apply t v =
    let dst = Array.make t.n F.zero in
    apply_into t v dst;
    dst

  (* transpose apply of one shard into [out]: the column partial sums of
     its row block, accumulated in row order exactly like the unsharded
     Sparse.matvec_transpose scatter loop (the dense case is the same
     scatter without the zero test, one kernel axpy per row) *)
  let shard_apply_transpose sh v out =
    match sh.payload with
    | Dense { data; cols } ->
      for i = sh.row_lo to sh.row_hi - 1 do
        K.axpy_into ~a:v.(i) ~x:data ~xoff:(i * cols) ~y:out ~yoff:0 ~len:cols
      done
    | Csr { row_ptr; col_idx; values } ->
      for i = sh.row_lo to sh.row_hi - 1 do
        if not (F.is_zero v.(i)) then begin
          let r = i - sh.row_lo in
          for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
            let j = col_idx.(k) in
            out.(j) <- F.add out.(j) (F.mul values.(k) v.(i))
          done
        end
      done

  let apply_transpose_into t v dst =
    if Array.length v <> t.n || Array.length dst <> t.n then
      invalid_arg "Sharded.apply_transpose_into: dimension mismatch";
    Cnt.incr c_t_applies;
    Span.with_ "shard.transpose" @@ fun () ->
    if Array.length t.shards = 1 then begin
      Array.fill dst 0 t.n F.zero;
      shard_apply_transpose t.shards.(0) v dst
    end
    else begin
      fan_out t
        (Array.map
           (fun sh ->
             fun () ->
              Array.fill sh.tbuf 0 t.n F.zero;
              shard_apply_transpose sh v sh.tbuf)
           t.shards);
      (* gather in fixed shard order: dst = tbuf₀ + tbuf₁ + … *)
      Array.blit t.shards.(0).tbuf 0 dst 0 t.n;
      for k = 1 to Array.length t.shards - 1 do
        K.add_into ~x:dst ~xoff:0 ~y:t.shards.(k).tbuf ~yoff:0 ~dst ~doff:0
          ~len:t.n
      done
    end

  let apply_transpose t v =
    let dst = Array.make t.n F.zero in
    apply_transpose_into t v dst;
    dst

  let to_blackbox t =
    Bb.of_sharded ~dim:t.n ~ops_per_apply:t.ops ~apply:(apply t)
      ~apply_transpose:(Some (apply_transpose t))

  (* row-sharded dense product: each shard is one row-ranged kernel
     matmul_into over the shared operands — every output row written by
     exactly one shard, bit-identical to Dense.mul *)
  let mul ?pool ?shards (a : M.t) (b : M.t) =
    if a.M.cols <> b.M.rows then
      invalid_arg "Sharded.mul: inner dimension mismatch";
    let s =
      check_shards "Sharded.mul"
        (match shards with Some s -> s | None -> auto_shards ?pool ())
    in
    Cnt.incr c_muls;
    Span.with_ "shard.mul" @@ fun () ->
    let out = M.make a.M.rows b.M.cols in
    let run row_lo row_hi () =
      if row_hi > row_lo then
        K.matmul_into ~a:a.M.data ~b:b.M.data ~dst:out.M.data ~inner:a.M.cols
          ~bcols:b.M.cols ~row_lo ~row_hi
    in
    (match pool with
    | Some p when s > 1 ->
      Cnt.incr c_fanouts;
      Pool.region_run p
        (List.init s (fun i ->
             let lo, hi = range ~n:a.M.rows ~s i in
             run lo hi))
    | _ ->
      for i = 0 to s - 1 do
        let lo, hi = range ~n:a.M.rows ~s i in
        run lo hi ()
      done);
    out

  let mul_fn ?pool ~shards () =
    let shards = check_shards "Sharded.mul_fn" shards in
    fun a b -> mul ?pool ~shards a b
end
