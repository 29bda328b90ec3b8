module type S = sig
  type elt
  type t = elt array

  val make : int -> t
  val of_array : int -> elt array -> t
  val truncate : int -> t -> t
  val one : int -> t
  val constant : int -> elt -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : elt -> t -> t
  val mul_full : elt array -> elt array -> elt array
  val mul : t -> t -> t
  val inv : t -> t
  val div : t -> t -> t
  val derivative : t -> t
  val integrate : t -> t
  val log : t -> t
  val exp : t -> t
  val eval : t -> elt -> elt
end

module Make_k
    (F : Kp_field.Field_intf.FIELD_CORE)
    (K : Kp_kernel.Kernel_intf.KERNEL with type t = F.t) =
struct
  type elt = F.t
  type t = F.t array

  let make n = Array.make n F.zero

  let of_array n a =
    Array.init n (fun i -> if i < Array.length a then a.(i) else F.zero)

  let truncate n a = of_array n a

  let one n =
    let s = make n in
    if n > 0 then s.(0) <- F.one;
    s

  let constant n c =
    let s = make n in
    if n > 0 then s.(0) <- c;
    s

  let check_len a b name =
    if Array.length a <> Array.length b then
      invalid_arg (Printf.sprintf "Series.%s: length mismatch (%d vs %d)" name
          (Array.length a) (Array.length b))

  let add a b =
    check_len a b "add";
    let n = Array.length a in
    let out = make n in
    K.add_into ~x:a ~xoff:0 ~y:b ~yoff:0 ~dst:out ~doff:0 ~len:n;
    out

  let sub a b =
    check_len a b "sub";
    let n = Array.length a in
    let out = make n in
    K.sub_into ~x:a ~xoff:0 ~y:b ~yoff:0 ~dst:out ~doff:0 ~len:n;
    out

  let neg a = Array.map F.neg a

  let scale c a =
    let n = Array.length a in
    let out = make n in
    K.scale_into ~a:c ~x:a ~xoff:0 ~dst:out ~doff:0 ~len:n;
    out

  let karatsuba_threshold = 24

  (* Oblivious full product: no zero tests, so the op sequence depends only
     on lengths (exactly what gets traced into circuits). *)
  let rec mul_full (a : F.t array) (b : F.t array) : F.t array =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else if la < karatsuba_threshold || lb < karatsuba_threshold then begin
      (* schoolbook leaf: one bulk AXPY per row — the derived kernel replays
         exactly the historical out.(i+j) <- out.(i+j) + a.(i)·b.(j) loop *)
      let out = Array.make (la + lb - 1) F.zero in
      for i = 0 to la - 1 do
        K.axpy_into ~a:a.(i) ~x:b ~xoff:0 ~y:out ~yoff:i ~len:lb
      done;
      out
    end
    else begin
      let m = (max la lb + 1) / 2 in
      let lo v = Array.sub v 0 (min m (Array.length v)) in
      let hi v =
        let l = Array.length v in
        if l <= m then [||] else Array.sub v m (l - m)
      in
      let padd u v =
        let n = max (Array.length u) (Array.length v) in
        Array.init n (fun i ->
            let x = if i < Array.length u then u.(i) else F.zero in
            let y = if i < Array.length v then v.(i) else F.zero in
            F.add x y)
      in
      let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
      (* the gate order a traced circuit records: both sums (b's first),
         then z0, z2, z1 *)
      let sb = padd b0 b1 in
      let sa = padd a0 a1 in
      let z0 = mul_full a0 b0 in
      let z2 = mul_full a1 b1 in
      let z1 = mul_full sa sb in
      (* z1 placed at offset m transiently overflows la+lb-1 before the
         -z0 -z2 corrections cancel its top; use a scratch and truncate. *)
      let out = Array.make (max (la + lb - 1) (3 * m)) F.zero in
      let acc sign v off =
        let lv = Array.length v in
        if sign then
          K.add_into ~x:out ~xoff:off ~y:v ~yoff:0 ~dst:out ~doff:off ~len:lv
        else
          K.sub_into ~x:out ~xoff:off ~y:v ~yoff:0 ~dst:out ~doff:off ~len:lv
      in
      acc true z0 0;
      acc true z2 (2 * m);
      acc true z1 m;
      acc false z0 m;
      acc false z2 m;
      Array.sub out 0 (la + lb - 1)
    end

  let mul a b =
    check_len a b "mul";
    of_array (Array.length a) (mul_full a b)

  (* Newton: g_{2k} = g_k (2 - f g_k) mod x^{2k}; one scalar inversion. *)
  let inv f =
    let n = Array.length f in
    if n = 0 then [||]
    else begin
      let g0 = F.inv f.(0) in
      let rec grow g k =
        if k >= n then truncate n g
        else begin
          let k2 = min n (2 * k) in
          let fk = truncate k2 f in
          let gk = truncate k2 g in
          let t = mul fk gk in
          let two_minus = sub (scale (F.of_int 2) (one k2)) t in
          grow (mul gk two_minus) k2
        end
      in
      grow [| g0 |] 1
    end

  let div a b = mul a (inv b)

  let derivative f =
    let n = Array.length f in
    if n <= 1 then make (max 1 (n - 1))
    else Array.init (n - 1) (fun i -> F.mul (F.of_int (i + 1)) f.(i + 1))

  let integrate f =
    let n = Array.length f in
    Array.init (n + 1) (fun i ->
        if i = 0 then F.zero else F.div f.(i - 1) (F.of_int i))

  let log f =
    let n = Array.length f in
    if n = 0 then [||]
    else
      (* log f = ∫ f'/f; keep length n *)
      let quotient = mul (of_array n (derivative f)) (inv f) in
      truncate n (integrate (truncate (max 0 (n - 1)) quotient))

  let exp f =
    let n = Array.length f in
    if n = 0 then [||]
    else begin
      (* Newton: g <- g (1 + f - log g), doubling precision *)
      let rec grow g k =
        if k >= n then truncate n g
        else begin
          let k2 = min n (2 * k) in
          let gk = truncate k2 g in
          let fk = truncate k2 f in
          let correction = add (sub fk (log gk)) (one k2) in
          grow (mul gk correction) k2
        end
      in
      grow [| F.one |] 1
    end

  let eval f v =
    let acc = ref F.zero in
    for i = Array.length f - 1 downto 0 do
      acc := F.add (F.mul !acc v) f.(i)
    done;
    !acc
end

(* historical entry point: the derived kernel replays the scalar loops
   verbatim, so counting fields and circuit builders see the same operation
   stream as before the kernel layer existed *)
module Make (F : Kp_field.Field_intf.FIELD_CORE) =
  Make_k (F) (Kp_kernel.Derived.Make (F))
