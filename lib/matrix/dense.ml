module Core (F : Kp_field.Field_intf.FIELD_CORE) = struct
  type t = { rows : int; cols : int; data : F.t array }

  let make rows cols = { rows; cols; data = Array.make (rows * cols) F.zero }

  let init rows cols f =
    {
      rows;
      cols;
      data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols));
    }

  let identity n = init n n (fun i j -> if i = j then F.one else F.zero)

  let get m i j = m.data.((i * m.cols) + j)
  let set m i j v = m.data.((i * m.cols) + j) <- v
  let copy m = { m with data = Array.copy m.data }

  let of_arrays rows =
    let r = Array.length rows in
    if r = 0 then make 0 0
    else begin
      let c = Array.length rows.(0) in
      Array.iter
        (fun row ->
          if Array.length row <> c then invalid_arg "Dense.of_arrays: ragged")
        rows;
      init r c (fun i j -> rows.(i).(j))
    end

  let to_arrays m = Array.init m.rows (fun i -> Array.init m.cols (get m i))
  let row m i = Array.init m.cols (get m i)
  let col m j = Array.init m.rows (fun i -> get m i j)

  let same_dims a b name =
    if a.rows <> b.rows || a.cols <> b.cols then
      invalid_arg (Printf.sprintf "Dense.%s: dimension mismatch" name)

  let add a b =
    same_dims a b "add";
    { a with data = Array.init (Array.length a.data) (fun k -> F.add a.data.(k) b.data.(k)) }

  let sub a b =
    same_dims a b "sub";
    { a with data = Array.init (Array.length a.data) (fun k -> F.sub a.data.(k) b.data.(k)) }

  let neg a = { a with data = Array.map F.neg a.data }
  let scale c a = { a with data = Array.map (F.mul c) a.data }

  let transpose m = init m.cols m.rows (fun i j -> get m j i)

  (* Balanced product-sum: Σ f(k) for lo <= k < hi with O(log) depth —
     the PRAM-faithful inner product (a sequential chain would put a Θ(n)
     path in every traced circuit).  Small blocks are folded sequentially:
     constant extra depth, no recursion overhead on the leaves. *)
  let rec balanced_sum lo hi f =
    if hi <= lo then F.zero
    else if hi - lo <= 8 then begin
      let acc = ref (f lo) in
      for k = lo + 1 to hi - 1 do
        acc := F.add !acc (f k)
      done;
      !acc
    end
    else begin
      let mid = (lo + hi) / 2 in
      F.add (balanced_sum lo mid f) (balanced_sum mid hi f)
    end

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Dense.mul: inner dimension mismatch";
    let m = a.cols and q = b.cols in
    init a.rows b.cols (fun i j ->
        balanced_sum 0 m (fun k -> F.mul a.data.((i * m) + k) b.data.((k * q) + j)))

  (* Strassen on square matrices; odd sizes above the cutoff are padded by
     one zero row/column so the recursion never falls back early. *)
  let mul_strassen ?(cutoff = 64) a b =
    if a.rows <> a.cols || b.rows <> b.cols || a.rows <> b.rows then
      invalid_arg "Dense.mul_strassen: square matrices of equal size required";
    let rec go a b =
      let n = a.rows in
      if n <= cutoff then mul a b
      else if n land 1 = 1 then begin
        let pad m =
          init (n + 1) (n + 1) (fun i j ->
              if i < n && j < n then get m i j else F.zero)
        in
        let c = go (pad a) (pad b) in
        init n n (fun i j -> get c i j)
      end
      else begin
        let h = n / 2 in
        let quad m r c = init h h (fun i j -> get m (i + (r * h)) (j + (c * h))) in
        let a11 = quad a 0 0 and a12 = quad a 0 1 and a21 = quad a 1 0 and a22 = quad a 1 1 in
        let b11 = quad b 0 0 and b12 = quad b 0 1 and b21 = quad b 1 0 and b22 = quad b 1 1 in
        let m1 = go (add a11 a22) (add b11 b22) in
        let m2 = go (add a21 a22) b11 in
        let m3 = go a11 (sub b12 b22) in
        let m4 = go a22 (sub b21 b11) in
        let m5 = go (add a11 a12) b22 in
        let m6 = go (sub a21 a11) (add b11 b12) in
        let m7 = go (sub a12 a22) (add b21 b22) in
        let c11 = add (sub (add m1 m4) m5) m7 in
        let c12 = add m3 m5 in
        let c21 = add m2 m4 in
        let c22 = add (add (sub m1 m2) m3) m6 in
        init n n (fun i j ->
            let q = if i < h then if j < h then c11 else c12
                    else if j < h then c21 else c22 in
            get q (i mod h) (j mod h))
      end
    in
    go a b

  let matvec m v =
    if m.cols <> Array.length v then invalid_arg "Dense.matvec: dimension mismatch";
    Array.init m.rows (fun i ->
        let base = i * m.cols in
        balanced_sum 0 m.cols (fun j -> F.mul m.data.(base + j) v.(j)))

  let vecmat v m =
    if m.rows <> Array.length v then invalid_arg "Dense.vecmat: dimension mismatch";
    Array.init m.cols (fun j ->
        balanced_sum 0 m.rows (fun i -> F.mul v.(i) (get m i j)))

  let diag d =
    let n = Array.length d in
    init n n (fun i j -> if i = j then d.(i) else F.zero)

  let map f m = { m with data = Array.map f m.data }
end

module Make (F : Kp_field.Field_intf.FIELD) = struct
  include Core (F)

  (* Concrete computation dispatches every hot loop to the bulk kernel
     selected by [F.kernel_hint]: the word-level GF(p)/GF(2) backends when
     the representation allows, the derived (operation-faithful) kernel
     otherwise.  Either way the i,k,j order and the sequential row
     accumulation shadowed here produce the same residues — and for the
     derived backend, the same operation counts — as the historical scalar
     loops.  Core's balanced-reduction [mul]/[matvec] stay untouched for
     circuit builders. *)
  module K = Kp_kernel.Dispatch.Make (F)

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Dense.mul: inner dimension mismatch";
    let out = make a.rows b.cols in
    K.matmul_into ~a:a.data ~b:b.data ~dst:out.data ~inner:a.cols
      ~bcols:b.cols ~row_lo:0 ~row_hi:a.rows;
    out

  let matvec_into m v dst =
    if m.cols <> Array.length v || m.rows <> Array.length dst then
      invalid_arg "Dense.matvec_into: dimension mismatch";
    K.matvec_into ~m:m.data ~cols:m.cols ~row_lo:0 ~row_hi:m.rows ~x:v ~dst

  let matvec m v =
    if m.cols <> Array.length v then invalid_arg "Dense.matvec: dimension mismatch";
    let dst = Array.make m.rows F.zero in
    K.matvec_into ~m:m.data ~cols:m.cols ~row_lo:0 ~row_hi:m.rows ~x:v ~dst;
    dst

  let equal a b =
    a.rows = b.rows && a.cols = b.cols
    && (let ok = ref true in
        Array.iteri (fun k x -> if not (F.equal x b.data.(k)) then ok := false) a.data;
        !ok)

  let is_zero a = Array.for_all F.is_zero a.data

  let random st rows cols = init rows cols (fun _ _ -> F.random st)
  let sample st ~card_s rows cols = init rows cols (fun _ _ -> F.sample st ~card_s)

  let random_nonsingular st n =
    (* L·U with unit diagonals is always non-singular; scramble with a
       random permutation of rows for good measure. *)
    let l = init n n (fun i j -> if i = j then F.one else if i > j then F.random st else F.zero) in
    let u = init n n (fun i j -> if i = j then F.one else if i < j then F.random st else F.zero) in
    let d =
      diag
        (Array.init n (fun _ ->
             let rec nz () =
               let x = F.random st in
               if F.is_zero x then nz () else x
             in
             nz ()))
    in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let lu = mul l (mul d u) in
    init n n (fun i j -> get lu perm.(i) j)

  let sample_nonsingular st ~card_s n =
    (* unit-triangular product: always non-singular (determinant 1), with
       every random entry drawn from the size-card_s sample set *)
    let entry lower i j =
      if i = j then F.one
      else if (if lower then i > j else i < j) then F.sample st ~card_s
      else F.zero
    in
    let l = init n n (entry true) in
    let u = init n n (entry false) in
    mul l u

  let random_of_rank st n ~rank =
    if rank < 0 || rank > n then invalid_arg "Dense.random_of_rank";
    (* product of random n×r and r×n full-rank factors *)
    if rank = 0 then make n n
    else begin
      (* G = [Gr; random] with Gr non-singular, H = [Hr | random] with Hr
         non-singular: rank(G·H) = rank exactly. *)
      let gr = random_nonsingular st rank in
      let hr = random_nonsingular st rank in
      let g = init n rank (fun i j -> if i < rank then get gr i j else F.random st) in
      let h = init rank n (fun i j -> if j < rank then get hr i j else F.random st) in
      mul g h
    end

  let mul_parallel pool a b =
    if a.cols <> b.rows then invalid_arg "Dense.mul_parallel: inner dimension mismatch";
    let out = make a.rows b.cols in
    (* row-disjoint chunks, each one bulk kernel call; every row is written
       by exactly one chunk, so the result is bit-identical to [mul] *)
    let chunk = max 1 (a.rows / (4 * Kp_util.Pool.size pool)) in
    Kp_util.Pool.parallel_for_chunked pool ~lo:0 ~hi:a.rows ~chunk
      (fun cl ch ->
        K.matmul_into ~a:a.data ~b:b.data ~dst:out.data ~inner:a.cols
          ~bcols:b.cols ~row_lo:cl ~row_hi:ch);
    out

  let to_string m =
    let buf = Buffer.create 128 in
    for i = 0 to m.rows - 1 do
      Buffer.add_string buf "[ ";
      for j = 0 to m.cols - 1 do
        Buffer.add_string buf (F.to_string (get m i j));
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf "]\n"
    done;
    Buffer.contents buf

  let pp fmt m = Format.pp_print_string fmt (to_string m)
end
