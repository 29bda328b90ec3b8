module Counter = Kp_obs.Counter
module Span = Kp_obs.Span

(* ---- kinds and selection ---- *)

type kind = Dense_hd | Sparse_butterfly | Ext_field
type choice = Auto | Forced of kind

let all_kinds = [ Dense_hd; Sparse_butterfly; Ext_field ]

let kind_name = function
  | Dense_hd -> "dense"
  | Sparse_butterfly -> "sparse"
  | Ext_field -> "ext"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" | "hankel" | "hd" -> Some Dense_hd
  | "sparse" | "butterfly" -> Some Sparse_butterfly
  | "ext" | "extension" -> Some Ext_field
  | _ -> None

let choice_name = function Auto -> "auto" | Forced k -> kind_name k

let choice_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Some Auto
  | other -> Option.map (fun k -> Forced k) (kind_of_string other)

let describe = function
  | Dense_hd ->
    "dense Hankel × diagonal (Theorem 2; the exact legacy draw stream and \
     arithmetic)"
  | Sparse_butterfly ->
    "butterfly exchange network × non-zero diagonal (Eberly-style; \
     O(n log n) field ops per apply, preserves black-box sparsity)"
  | Ext_field ->
    "butterfly over GF(q^k) chunk scalars (small-field track: card(S) \
     escalation routes through the extension instead of stalling at q)"

let default_choice () =
  match Sys.getenv_opt "KP_PRECOND" with
  | None -> Auto
  | Some s -> Option.value (choice_of_string s) ~default:Auto

let resolve ?(sparse = false) = function
  | Forced k -> k
  | Auto -> if sparse then Sparse_butterfly else Dense_hd

(* q^k as an int, None on overflow *)
let pow_opt q k =
  if q <= 1 then Some q
  else begin
    let rec go acc i =
      if i = 0 then Some acc
      else if acc > max_int / q then None
      else go (acc * q) (i - 1)
    in
    go 1 k
  end

(* Sample-set ceiling for the retry engine's |S| doubling: the extension
   kind keeps escalating up to q^8 (Eberly's small-field projections);
   everything else clamps at the field cardinality as before. *)
let max_ext_degree = 8

let escalation_ceiling ~cardinality ~characteristic kind =
  match (kind, cardinality) with
  | Ext_field, Some q when q = characteristic -> pow_opt q max_ext_degree
  | _, c -> c

(* ---- telemetry ---- *)

let c_demote = Counter.make "precond.demote"
let c_build_dense = Counter.make "precond.build.dense"
let c_build_sparse = Counter.make "precond.build.sparse"
let c_build_ext = Counter.make "precond.build.ext"

let build_counter = function
  | Dense_hd -> c_build_dense
  | Sparse_butterfly -> c_build_sparse
  | Ext_field -> c_build_ext

(* Retry-engine demotion: a structured preconditioner gets the first half of
   the attempt budget; once attempts cross the midpoint the kind falls back
   to the dense Hankel·Diagonal, whose Theorem-2 success bound is the one the
   paper proves.  Dense never demotes (it is already the floor). *)
let kind_for_attempt ~retries ~attempt kind =
  match kind with
  | Dense_hd -> Dense_hd
  | k ->
    if 2 * attempt > retries + 1 then begin
      Counter.incr c_demote;
      Dense_hd
    end
    else k

(* ---- the preconditioner record ---- *)

type 'a t = {
  kind : kind;
  n : int;
  apply : 'a array -> 'a array;
      (* v ↦ P·v; composing a black box A with this gives Ã = A·P *)
  apply_into : 'a array -> 'a array -> unit;
      (* P·src written into dst, which must not be src *)
  apply_transpose : 'a array -> 'a array;
      (* v ↦ Pᵀ·v *)
  dense : unit -> 'a array;  (* row-major n×n materialisation of P *)
  det : unit -> 'a;          (* det P, fresh arithmetic on every call *)
  ops_per_apply : int Lazy.t;
      (* field ops of one [apply]; lazy because the dense kind measures its
         Hankel convolution through a counting field, which a consumer that
         never instruments applies (the dense pipeline) must not pay for —
         and must not perform at all when it is itself a counting field *)
}

(* [apply_into] for a kind whose apply allocates anyway: P·src copied out *)
let copy_into apply src dst =
  let w = apply src in
  Array.blit w 0 dst 0 (Array.length w)

(* ---- straight-line layer (FIELD_CORE): the dense Hankel·Diagonal ---- *)

module Core
    (F : Kp_field.Field_intf.FIELD_CORE)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module HK = Kp_structured.Hankel.Make (F) (C)
  module Lev = Kp_structured.Leverrier.Make (F)

  type charpoly_engine = n:int -> F.t array -> F.t array
  type det_routine = n:int -> h:F.t array -> d:F.t array -> F.t

  (* balanced product, O(log n) depth when traced *)
  let rec balanced_product d lo hi =
    if hi <= lo then F.one
    else if hi - lo = 1 then d.(lo)
    else begin
      let mid = (lo + hi) / 2 in
      F.mul (balanced_product d lo mid) (balanced_product d mid hi)
    end

  let det_hd ~charpoly ~n ~h ~d =
    Span.with_ "pipeline.det_hd" @@ fun () ->
    let mirror = HK.to_toeplitz ~n h in
    let cp_t = charpoly ~n mirror in
    let det_t = Lev.char_to_det ~n cp_t in
    let sign = HK.mirror_sign n in
    let det_h = if sign = 1 then det_t else F.neg det_t in
    let det_d = balanced_product d 0 (Array.length d) in
    F.mul det_h det_d

  (* P = H·D from explicit Hankel entries h (length 2n-1) and diagonal d
     (length n).  Every closure repeats the operation order of the code it
     replaced, so dense-kind runs are bit-identical to the pre-refactor
     pipeline (and op-identical under a counting field). *)
  let hankel_diag ?ops_per_apply ~(det : det_routine) ~n ~h ~d () =
    let ops_per_apply = Option.value ops_per_apply ~default:(lazy 0) in
    let apply v =
      let dv = Array.init n (fun i -> F.mul d.(i) v.(i)) in
      HK.matvec ~n h dv
    in
    let apply_transpose v =
      let hv = HK.matvec ~n h v in
      Array.init n (fun i -> F.mul d.(i) hv.(i))
    in
    {
      kind = Dense_hd;
      n;
      apply;
      apply_into = copy_into apply;
      apply_transpose;
      dense =
        (fun () ->
          (* (H·D)_{ij} = h_{i+j}·d_j, in Dense.Core.init element order *)
          Array.init (n * n) (fun k ->
              F.mul h.((k / n) + (k mod n)) d.(k mod n)));
      det = (fun () -> det ~n ~h ~d);
      ops_per_apply;
    }
end

(* ---- full layer (FIELD): random builders for every kind ---- *)

module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  include Core (F) (C)
  module G = Kp_matrix.Gauss.Make (F)
  module K = Kp_kernel.Dispatch.Make (F)

  (* One Hankel matvec is a full convolution of lengths 2n-1 and n.  The
     Karatsuba multiplier is oblivious — its operation sequence depends only
     on the input lengths — so its true cost is measured once per n through
     the counting field and cached. *)
  module CntF = Kp_field.Counting.Make (F)
  module CntC = Kp_poly.Conv.Karatsuba (CntF)
  module CntHK = Kp_structured.Hankel.Make (CntF) (CntC)

  let hankel_cost_cache : (int, int) Hashtbl.t = Hashtbl.create 8

  let hankel_ops_per_apply n =
    match Hashtbl.find_opt hankel_cost_cache n with
    | Some c -> c
    | None ->
      let h = Array.make ((2 * n) - 1) CntF.one in
      let v = Array.make n CntF.one in
      let _, ops = CntF.measure (fun () -> ignore (CntHK.matvec ~n h v)) in
      let c = Kp_field.Counting.total ops in
      Hashtbl.replace hankel_cost_cache n c;
      c

  let sample_nonzero st ~card_s =
    let rec go k =
      let x = F.sample st ~card_s in
      if F.is_zero x && k < 100 then go (k + 1)
      else if F.is_zero x then F.one
      else x
    in
    go 0

  (* -- dense Hankel·Diagonal: the exact legacy draw stream (h then d) -- *)

  (* det(H)·det(D) by Gaussian elimination on the materialised Hankel:
     O(n³) sequential work instead of a Toeplitz charpoly, and the same
     value — det P is a function of the drawn entries alone *)
  let det_hd_elimination ~n ~h ~d =
    Span.with_ "pipeline.det_hd" @@ fun () ->
    let det_h = G.det (G.M.init n n (fun i j -> h.(i + j))) in
    F.mul det_h (balanced_product d 0 n)

  let build_dense ~det ~card_s ~n st =
    let h = Array.init ((2 * n) - 1) (fun _ -> F.sample st ~card_s) in
    let d = Array.init n (fun _ -> sample_nonzero st ~card_s) in
    hankel_diag
      ~ops_per_apply:(lazy (hankel_ops_per_apply n + n))
      ~det ~n ~h ~d ()

  (* -- sparse butterfly: ⌈log₂ n⌉ exchange layers of determinant-1 2×2
        blocks over a non-zero diagonal -- *)

  (* One exchange layer ({!Kp_kernel.Kernel_intf.butterfly_layer}): pair
     k's block is [[a b];[c dd]] with dd = (1 + b·c)/a, so the block
     determinant is 1 and det(P) reduces to the diagonal.  Drawn per pair,
     in pair order: a (non-zero), b, c.  Every 1/a comes from one
     inversion of the layer's product of a's (Montgomery's trick): the
     draw loop leaves the prefix a.(0)·…·a.(k−1) in dd.(k), and from the
     last pair down, that prefix times the inverse of the product through
     a.(k) is 1/a.(k). *)
  let butterfly_layer ~card_s ~n st stride :
      F.t Kp_kernel.Kernel_intf.butterfly_layer =
    let pairs = Kp_kernel.Kernel_intf.butterfly_pairs ~n ~stride in
    let a = Array.make pairs F.zero and b = Array.make pairs F.zero in
    let c = Array.make pairs F.zero and dd = Array.make pairs F.zero in
    let prod = ref F.one in
    for k = 0 to pairs - 1 do
      a.(k) <- sample_nonzero st ~card_s;
      b.(k) <- F.sample st ~card_s;
      c.(k) <- F.sample st ~card_s;
      dd.(k) <- !prod;
      prod := F.mul !prod a.(k)
    done;
    if pairs > 0 then begin
      let inv = ref (F.inv !prod) in
      for k = pairs - 1 downto 0 do
        let inv_a = F.mul !inv dd.(k) in
        inv := F.mul !inv a.(k);
        dd.(k) <- F.mul (F.add F.one (F.mul b.(k) c.(k))) inv_a
      done
    end;
    { stride; a; b; c; dd }

  (* strides 1, 2, 4, … below n, drawn in that order *)
  let butterfly_layers ~card_s ~n st =
    let rec count s = if s < n then 1 + count (2 * s) else 0 in
    Array.init (count 1) (fun l -> butterfly_layer ~card_s ~n st (1 lsl l))

  let build_butterfly ~kind ~card_s ~n st =
    let d = Array.init n (fun _ -> sample_nonzero st ~card_s) in
    let layers = butterfly_layers ~card_s ~n st in
    (* P = L_m·…·L_1·D, prepared once: one kernel call per apply *)
    let net = K.butterfly_prepare ~d ~layers in
    let apply_into v dst =
      K.butterfly_apply_into net ~transpose:false ~src:v ~dst
    in
    let apply v =
      let w = Array.make n F.zero in
      apply_into v w;
      w
    in
    let apply_transpose v =
      let w = Array.make n F.zero in
      K.butterfly_apply_into net ~transpose:true ~src:v ~dst:w;
      w
    in
    let dense () =
      let data = Array.make (n * n) F.zero in
      for j = 0 to n - 1 do
        let e = Array.make n F.zero in
        e.(j) <- F.one;
        let col = apply e in
        for i = 0 to n - 1 do
          data.((i * n) + j) <- col.(i)
        done
      done;
      data
    in
    let det () =
      (* fresh arithmetic on every call: the two-evaluation det discipline
         relies on recomputation, not a cached value *)
      let pd = ref F.one in
      Array.iter
        (fun { Kp_kernel.Kernel_intf.a; b; c; dd; _ } ->
          for k = 0 to Array.length a - 1 do
            pd := F.mul !pd (F.sub (F.mul a.(k) dd.(k)) (F.mul b.(k) c.(k)))
          done)
        layers;
      F.mul !pd (balanced_product d 0 n)
    in
    let pairs =
      Array.fold_left
        (fun acc l -> acc + Array.length l.Kp_kernel.Kernel_intf.a)
        0 layers
    in
    {
      kind;
      n;
      apply;
      apply_into;
      apply_transpose;
      dense;
      det;
      ops_per_apply = lazy (n + (6 * pairs));
    }

  (* -- extension-field butterfly: chunk the n coordinates into blocks of k
        and run the butterfly over E = GF(q^k) chunk scalars -- *)

  (* E elements are coefficient vectors over F of length k; a chunk of k
     coordinates is an E element in the monomial basis, so E-scalar action
     on a chunk is the regular representation. *)

  let modulus_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 4

  (* monic irreducible of degree k over GF(q), deterministic per (q, k) so
     the modulus never perturbs the caller's draw stream *)
  let modulus ~q ~k =
    match Hashtbl.find_opt modulus_cache (q, k) with
    | Some m -> m
    | None ->
      let st = Random.State.make [| 0x9e3779b9; q; k |] in
      let m = Kp_field.Gfext.find_irreducible ~p:q ~k st in
      Hashtbl.replace modulus_cache (q, k) m;
      m

  (* the low k coefficients of the monic modulus, lifted into F *)
  let modulus_low ~q ~k =
    let m = modulus ~q ~k in
    Array.init k (fun i -> F.of_int m.(i))

  let eadd = Array.map2 F.add
  let eis_zero = Array.for_all F.is_zero

  let emul ~mlow a b =
    let k = Array.length a in
    let prod = Array.make ((2 * k) - 1) F.zero in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        prod.(i + j) <- F.add prod.(i + j) (F.mul a.(i) b.(j))
      done
    done;
    for deg = (2 * k) - 2 downto k do
      let c = prod.(deg) in
      if not (F.is_zero c) then begin
        prod.(deg) <- F.zero;
        for t = 0 to k - 1 do
          prod.(deg - k + t) <- F.sub prod.(deg - k + t) (F.mul c mlow.(t))
        done
      end
    done;
    Array.sub prod 0 k

  let eone k = Array.init k (fun i -> if i = 0 then F.one else F.zero)

  let epow ~mlow e m =
    let k = Array.length e in
    let acc = ref (eone k) in
    let base = ref e in
    let m = ref m in
    while !m > 0 do
      if !m land 1 = 1 then acc := emul ~mlow !acc !base;
      base := emul ~mlow !base !base;
      m := !m asr 1
    done;
    !acc

  (* inverse in E by Fermat: e^(q^k - 2); qk = q^k fits an int by
     construction (build_ext falls back to k = 1 otherwise) *)
  let einv ~mlow ~qk e =
    if eis_zero e then raise Division_by_zero;
    epow ~mlow e (qk - 2)

  (* one uniform integer below min(card_s, q^k), expanded in base-q digits:
     |S| escalation above q genuinely enlarges the E sample set *)
  let esample ~q ~qk ~card_s ~k st =
    let bound = max 1 (min card_s qk) in
    let v = ref (Random.State.int st bound) in
    Array.init k (fun _ ->
        let digit = !v mod q in
        v := !v / q;
        F.of_int digit)

  let esample_nonzero ~q ~qk ~card_s ~k st =
    let rec go i =
      let e = esample ~q ~qk ~card_s ~k st in
      if eis_zero e && i < 100 then go (i + 1)
      else if eis_zero e then eone k
      else e
    in
    go 0

  (* row-major k×k matrix of multiplication by e (column j = e·x^j mod m) *)
  let mulmat ~mlow e =
    let k = Array.length e in
    let cols = Array.make k e in
    let xpoly = Array.init k (fun i -> if i = 1 then F.one else F.zero) in
    for j = 1 to k - 1 do
      cols.(j) <- emul ~mlow cols.(j - 1) xpoly
    done;
    let mat = Array.make (k * k) F.zero in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        mat.((i * k) + j) <- cols.(j).(i)
      done
    done;
    mat

  let matvec_k ~k mat u =
    Array.init k (fun i ->
        let acc = ref F.zero in
        for j = 0 to k - 1 do
          acc := F.add !acc (F.mul mat.((i * k) + j) u.(j))
        done;
        !acc)

  let matvec_kt ~k mat u =
    Array.init k (fun j ->
        let acc = ref F.zero in
        for i = 0 to k - 1 do
          acc := F.add !acc (F.mul mat.((i * k) + j) u.(i))
        done;
        !acc)

  (* minimal k with q^k >= card_s (capped), or 1 when the base field is not
     a word-sized prime field *)
  let ext_degree ~card_s =
    match F.cardinality with
    | Some q when q = F.characteristic && q < card_s ->
      let rec go k qk =
        if qk >= card_s || k >= max_ext_degree then k
        else if qk > max_int / q then k
        else go (k + 1) (qk * q)
      in
      go 1 q
    | _ -> 1

  let build_ext ~card_s ~n st =
    let k = ext_degree ~card_s in
    if k <= 1 || k > n then
      (* degenerate: the butterfly over F itself (F large enough, or n too
         small to chunk) — same structure, tagged as the ext kind *)
      build_butterfly ~kind:Ext_field ~card_s ~n st
    else begin
      let q = F.characteristic in
      let qk = match pow_opt q k with Some v -> v | None -> assert false in
      let mlow = modulus_low ~q ~k in
      let nch = n / k in
      let tail = n - (nch * k) in
      (* draw order: per-chunk non-zero E diagonal, the scalar tail, then
         the butterfly layers over chunks *)
      let ediag =
        Array.init nch (fun _ -> esample_nonzero ~q ~qk ~card_s ~k st)
      in
      let dtail = Array.init tail (fun _ -> sample_nonzero st ~card_s) in
      let chunk_layers =
        (* butterfly over the nch chunks; E coefficients stored both as
           elements (for det norms) and as k×k action matrices *)
        let layers = ref [] in
        let s = ref 1 in
        while !s < nch do
          let step = !s in
          let block = 2 * step in
          let pairs = ref [] in
          let bstart = ref 0 in
          while !bstart < nch do
            for i = !bstart to min (!bstart + step) nch - 1 do
              if i + step < nch then begin
                let a = esample_nonzero ~q ~qk ~card_s ~k st in
                let b = esample ~q ~qk ~card_s ~k st in
                let c = esample ~q ~qk ~card_s ~k st in
                let dd = emul ~mlow (eadd (eone k) (emul ~mlow b c)) (einv ~mlow ~qk a) in
                pairs :=
                  ( i, i + step,
                    mulmat ~mlow a, mulmat ~mlow b,
                    mulmat ~mlow c, mulmat ~mlow dd )
                  :: !pairs
              end
            done;
            bstart := !bstart + block
          done;
          layers := Array.of_list (List.rev !pairs) :: !layers;
          s := block
        done;
        List.rev !layers
      in
      let dmats = Array.map (mulmat ~mlow) ediag in
      let get_chunk w c = Array.sub w (c * k) k in
      let set_chunk w c v = Array.blit v 0 w (c * k) k in
      let apply v =
        let w = Array.copy v in
        for c = 0 to nch - 1 do
          set_chunk w c (matvec_k ~k dmats.(c) (get_chunk w c))
        done;
        for i = nch * k to n - 1 do
          w.(i) <- F.mul dtail.(i - (nch * k)) w.(i)
        done;
        List.iter
          (fun pairs ->
            Array.iter
              (fun (ci, cj, ma, mb, mc, md) ->
                let u = get_chunk w ci and x = get_chunk w cj in
                set_chunk w ci (eadd (matvec_k ~k ma u) (matvec_k ~k mb x));
                set_chunk w cj (eadd (matvec_k ~k mc u) (matvec_k ~k md x)))
              pairs)
          chunk_layers;
        w
      in
      let apply_transpose v =
        let w = Array.copy v in
        List.iter
          (fun pairs ->
            Array.iter
              (fun (ci, cj, ma, mb, mc, md) ->
                let u = get_chunk w ci and x = get_chunk w cj in
                set_chunk w ci (eadd (matvec_kt ~k ma u) (matvec_kt ~k mc x));
                set_chunk w cj (eadd (matvec_kt ~k mb u) (matvec_kt ~k md x)))
              pairs)
          (List.rev chunk_layers);
        for c = 0 to nch - 1 do
          set_chunk w c (matvec_kt ~k dmats.(c) (get_chunk w c))
        done;
        for i = nch * k to n - 1 do
          w.(i) <- F.mul dtail.(i - (nch * k)) w.(i)
        done;
        w
      in
      let dense () =
        let data = Array.make (n * n) F.zero in
        for j = 0 to n - 1 do
          let e = Array.make n F.zero in
          e.(j) <- F.one;
          let col = apply e in
          for i = 0 to n - 1 do
            data.((i * n) + j) <- col.(i)
          done
        done;
        data
      in
      let det () =
        (* det_F(P) = Π Norm_{E/F}(diag) · Π det-1 block norms · Π tail;
           each norm is the determinant of the fresh k×k action matrix *)
        let acc = ref F.one in
        Array.iter
          (fun e ->
            let m = mulmat ~mlow e in
            let dm = G.M.init k k (fun i j -> m.((i * k) + j)) in
            acc := F.mul !acc (G.det dm))
          ediag;
        Array.iter (fun x -> acc := F.mul !acc x) dtail;
        !acc
      in
      let mv_ops = (2 * k * k) - k in
      let pairs =
        List.fold_left (fun acc l -> acc + Array.length l) 0 chunk_layers
      in
      {
        kind = Ext_field;
        n;
        apply;
        apply_into = copy_into apply;
        apply_transpose;
        dense;
        det;
        ops_per_apply =
          lazy ((nch * mv_ops) + tail + (pairs * ((4 * mv_ops) + (2 * k))));
      }
    end

  (* -- the registry -- *)

  (* [?charpoly] is ignored — the dense kind's det(P) is [det_hd] — and
     stays only so existing callers keep compiling *)
  let build ?charpoly:_ ?(det_hd = det_hd_elimination) ~card_s ~n kind st =
    Counter.incr (build_counter kind);
    Span.with_ ("precond.build." ^ kind_name kind) @@ fun () ->
    match kind with
    | Dense_hd -> build_dense ~det:det_hd ~card_s ~n st
    | Sparse_butterfly -> build_butterfly ~kind:Sparse_butterfly ~card_s ~n st
    | Ext_field -> build_ext ~card_s ~n st
end
