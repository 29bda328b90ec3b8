(** Reference kernel derived from a field's own scalar operations.

    Each primitive replays {e exactly} the operation pattern of the call
    site it replaced ([Vec.dot]'s balanced reduction, [Dense.Make.matvec]'s
    and [Sparse.matvec]'s sequential row accumulation, the butterfly's
    per-pair exchange, the schoolbook convolution leaf, …), so
    routing a call site through this kernel changes neither results nor
    operation counts — the property the counting-field regression baseline
    (BENCH.json) gates on, and the reason circuit builders can share the
    code path. *)

module Make (F : Kp_field.Field_intf.FIELD_CORE) :
  Kernel_intf.KERNEL with type t = F.t = struct
  type t = F.t

  let backend = "derived"

  (* balanced reduction: O(log n) depth when traced into a circuit, ≤8-element
     sequential leaves — byte-for-byte the shape of [Vec.balanced_dot] *)
  let rec balanced_dot a b lo hi =
    if hi <= lo then F.zero
    else if hi - lo <= 8 then begin
      let acc = ref (F.mul a.(lo) b.(lo)) in
      for i = lo + 1 to hi - 1 do
        acc := F.add !acc (F.mul a.(i) b.(i))
      done;
      !acc
    end
    else begin
      let mid = (lo + hi) / 2 in
      F.add (balanced_dot a b lo mid) (balanced_dot a b mid hi)
    end

  let dot a b = balanced_dot a b 0 (Array.length a)

  (* Massey's discrepancy loop: one add onto the running sum per product *)
  let dot_acc ~init ~x ~xoff ~y ~yoff ~len =
    let acc = ref init in
    for j = 0 to len - 1 do
      acc := F.add !acc (F.mul x.(xoff + j) y.(yoff + j))
    done;
    !acc

  let csr_matvec_into ~row_ptr ~cols ~vals ~row_lo ~row_hi ~x ~dst =
    for i = row_lo to row_hi - 1 do
      let acc = ref F.zero in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        acc := F.add !acc (F.mul vals.(k) x.(cols.(k)))
      done;
      dst.(i) <- !acc
    done

  (* references, not copies: each apply is the row loop above *)
  type csr = { row_ptr : int array; cols : int array; vals : t array }

  let csr_prepare ~row_ptr ~cols ~vals = { row_ptr; cols; vals }

  let csr_apply_into { row_ptr; cols; vals } ~src ~dst =
    csr_matvec_into ~row_ptr ~cols ~vals ~row_lo:0
      ~row_hi:(Array.length row_ptr - 1) ~x:src ~dst

  let axpy_into ~a ~x ~xoff ~y ~yoff ~len =
    for i = 0 to len - 1 do
      y.(yoff + i) <- F.add y.(yoff + i) (F.mul a x.(xoff + i))
    done

  let scale_into ~a ~x ~xoff ~dst ~doff ~len =
    for i = 0 to len - 1 do
      dst.(doff + i) <- F.mul a x.(xoff + i)
    done

  let add_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    for i = 0 to len - 1 do
      dst.(doff + i) <- F.add x.(xoff + i) y.(yoff + i)
    done

  let sub_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    for i = 0 to len - 1 do
      dst.(doff + i) <- F.sub x.(xoff + i) y.(yoff + i)
    done

  let pointwise_mul_into ~x ~xoff ~y ~yoff ~dst ~doff ~len =
    for i = 0 to len - 1 do
      dst.(doff + i) <- F.mul x.(xoff + i) y.(yoff + i)
    done

  (* the transposed layer is the forward one with the off-diagonal
     coefficients exchanged — the same expressions the preconditioner's
     per-pair loops evaluated *)
  let butterfly_layer ~transpose ~n w { Kernel_intf.stride; a; b; c; dd } =
    let b, c = if transpose then (c, b) else (b, c) in
    let k = ref 0 and blk = ref 0 in
    while !blk < n do
      for i = !blk to min (!blk + stride) (n - stride) - 1 do
        let j = i + stride and p = !k in
        let u = w.(i) and v = w.(j) in
        w.(i) <- F.add (F.mul a.(p) u) (F.mul b.(p) v);
        w.(j) <- F.add (F.mul c.(p) u) (F.mul dd.(p) v);
        incr k
      done;
      blk := !blk + (2 * stride)
    done

  (* references, not copies: the network is the arrays it was built from *)
  type butterfly = { d : t array; layers : t Kernel_intf.butterfly_layer array }

  let butterfly_prepare ~d ~layers = { d; layers }

  let butterfly_apply_into { d; layers } ~transpose ~src ~dst =
    let n = Array.length d in
    if transpose then begin
      Array.blit src 0 dst 0 n;
      for l = Array.length layers - 1 downto 0 do
        butterfly_layer ~transpose ~n dst layers.(l)
      done;
      pointwise_mul_into ~x:d ~xoff:0 ~y:dst ~yoff:0 ~dst ~doff:0 ~len:n
    end
    else begin
      pointwise_mul_into ~x:d ~xoff:0 ~y:src ~yoff:0 ~dst ~doff:0 ~len:n;
      for l = 0 to Array.length layers - 1 do
        butterfly_layer ~transpose ~n dst layers.(l)
      done
    end

  let matvec_into ~m ~cols ~row_lo ~row_hi ~x ~dst =
    for i = row_lo to row_hi - 1 do
      let base = i * cols in
      let acc = ref F.zero in
      for j = 0 to cols - 1 do
        acc := F.add !acc (F.mul m.(base + j) x.(j))
      done;
      dst.(i) <- !acc
    done

  (* a reference, not a copy: each apply is the matvec loop above *)
  type dense = { m : t array; rows : int; cols : int }

  let dense_prepare ~rows ~cols m = { m; rows; cols }

  let dense_apply_into { m; rows; cols } ~src ~dst =
    matvec_into ~m ~cols ~row_lo:0 ~row_hi:rows ~x:src ~dst

  let matmul_into ~a ~b ~dst ~inner ~bcols ~row_lo ~row_hi =
    for i = row_lo to row_hi - 1 do
      let arow = i * inner and orow = i * bcols in
      for k = 0 to inner - 1 do
        let aik = a.(arow + k) in
        let brow = k * bcols in
        for j = 0 to bcols - 1 do
          dst.(orow + j) <- F.add dst.(orow + j) (F.mul aik b.(brow + j))
        done
      done
    done
end
