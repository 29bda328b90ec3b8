module type S = sig
  type elt

  val mul_full : elt array -> elt array -> elt array
end

module Karatsuba_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) =
struct
  type elt = F.t

  module Ser = Series.Make_k (F) (K)

  let mul_full = Ser.mul_full
end

module Karatsuba (F : Kp_field.Field_intf.FIELD_CORE) =
  Karatsuba_k (F) (Kp_kernel.Derived.Make (F))

module Karatsuba_field (F : Kp_field.Field_intf.FIELD) =
  Karatsuba_k (F) (Kp_kernel.Dispatch.Make (F))

module type NTT_PRIME = sig
  val p : int
  val root : int
  val max_log2 : int
end

module Default_ntt_prime = struct
  let p = 998_244_353
  let root = 3
  let max_log2 = 23
end

module Ntt_generic_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t)
    (P : NTT_PRIME) =
struct
  type elt = F.t

  module Fallback = Karatsuba_k (F) (K)

  (* integer plan arithmetic *)
  let pow_mod b e =
    let p = P.p in
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then acc * b mod p else acc) (b * b mod p) (e lsr 1)
    in
    go 1 (b mod p) e

  let inv_mod a = pow_mod a (P.p - 2)

  (* cache of lifted root tables per transform length; guarded because
     pooled solves (an inverse's columns, a session batch's right-hand
     sides) can convolve from several domains at once.  Bounded:
     a long-running process convolving at many distinct lengths would
     otherwise retain one O(len) table pair per length forever, so past
     [max_root_tables] lengths the least-recently-used table is dropped
     (callers holding its arrays keep them alive; eviction only forgets
     the cache's reference, results are unchanged). *)
  let max_root_tables = 8
  let root_tables : (int, int ref * F.t array * F.t array) Hashtbl.t =
    Hashtbl.create 8
  let root_tables_mutex = Mutex.create ()
  let root_stamp = ref 0

  let root_tables_cached () =
    Mutex.lock root_tables_mutex;
    let n = Hashtbl.length root_tables in
    Mutex.unlock root_tables_mutex;
    n

  let roots_for len =
    Mutex.lock root_tables_mutex;
    incr root_stamp;
    let r =
      match Hashtbl.find_opt root_tables len with
      | Some (stamp, fwd, bwd) ->
        stamp := !root_stamp;
        (fwd, bwd)
      | None ->
        (* forward and inverse roots for each butterfly level, lifted once *)
        let fwd = Array.make len F.one and bwd = Array.make len F.one in
        let w = pow_mod P.root ((P.p - 1) / len) in
        let wi = inv_mod w in
        let cur_f = ref 1 and cur_b = ref 1 in
        for i = 0 to len - 1 do
          fwd.(i) <- F.of_int !cur_f;
          bwd.(i) <- F.of_int !cur_b;
          cur_f := !cur_f * w mod P.p;
          cur_b := !cur_b * wi mod P.p
        done;
        if Hashtbl.length root_tables >= max_root_tables then begin
          let victim = ref None in
          Hashtbl.iter
            (fun l (stamp, _, _) ->
              match !victim with
              | Some (_, best) when best <= !stamp -> ()
              | _ -> victim := Some (l, !stamp))
            root_tables;
          match !victim with
          | Some (l, _) -> Hashtbl.remove root_tables l
          | None -> ()
        end;
        Hashtbl.replace root_tables len (ref !root_stamp, fwd, bwd);
        (fwd, bwd)
    in
    Mutex.unlock root_tables_mutex;
    r

  (* One butterfly level is a loop over n/2 independent (u, v) pairs,
     executed as three bulk kernel passes per block: v = a_hi ⊙ roots into
     a scratch slice, then a_hi = a_lo - v and a_lo = a_lo + v. *)
  let transform (a : F.t array) ~inverse =
    let n = Array.length a in
    let j = ref 0 in
    for i = 1 to n - 1 do
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit;
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end
    done;
    let vbuf = Array.make (n lsr 1) F.zero in
    let len = ref 2 in
    while !len <= n do
      let fwd, bwd = roots_for !len in
      let roots = if inverse then bwd else fwd in
      let half = !len lsr 1 in
      for blk = 0 to (n / !len) - 1 do
        let i = blk * !len in
        let vo = blk * half in
        K.pointwise_mul_into ~x:a ~xoff:(i + half) ~y:roots ~yoff:0 ~dst:vbuf
          ~doff:vo ~len:half;
        K.sub_into ~x:a ~xoff:i ~y:vbuf ~yoff:vo ~dst:a ~doff:(i + half)
          ~len:half;
        K.add_into ~x:a ~xoff:i ~y:vbuf ~yoff:vo ~dst:a ~doff:i ~len:half
      done;
      len := !len lsl 1
    done;
    if inverse then
      K.scale_into ~a:(F.of_int (inv_mod n)) ~x:a ~xoff:0 ~dst:a ~doff:0 ~len:n

  let mul_full a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else begin
      let out_len = la + lb - 1 in
      let size = ref 1 in
      while !size < out_len do
        size := !size lsl 1
      done;
      if !size > 1 lsl P.max_log2 then Fallback.mul_full a b
      else begin
        let pad v =
          Array.init !size (fun i -> if i < Array.length v then v.(i) else F.zero)
        in
        let fa = pad a and fb = pad b in
        transform fa ~inverse:false;
        transform fb ~inverse:false;
        K.pointwise_mul_into ~x:fa ~xoff:0 ~y:fb ~yoff:0 ~dst:fa ~doff:0
          ~len:!size;
        transform fa ~inverse:true;
        Array.sub fa 0 out_len
      end
    end
end

module Ntt_generic (F : Kp_field.Field_intf.FIELD_CORE) (P : NTT_PRIME) =
  Ntt_generic_k (F) (Kp_kernel.Derived.Make (F)) (P)

module Ntt_field (F : Kp_field.Field_intf.FIELD) (P : NTT_PRIME) =
  Ntt_generic_k (F) (Kp_kernel.Dispatch.Make (F)) (P)
