module Make
    (F : Kp_field.Field_intf.FIELD)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module I = Kp_core.Inverse.Make (F) (C)
  module W = Kp_core.Wiedemann.Make (F)
  module Lv = Kp_core.Las_vegas.Make (F)
  module Bb = W.Bb
  module Pc = Kp_precond.Precond
  module M = Kp_matrix.Dense.Make (F)
  module O = Kp_robust.Outcome
  module Cnt = Kp_obs.Counter
  module Span = Kp_obs.Span

  let c_hit = Cnt.make "session.cache.hit"
  let c_miss = Cnt.make "session.cache.miss"
  let c_evict = Cnt.make "session.cache.evict"
  let c_evict_capacity = Cnt.make "session.cache.evict_capacity"
  let c_pool_batch = Cnt.make "pool.session.batch"

  module Tbl = Hashtbl.Make (struct
    type t = Fingerprint.t

    let equal = Fingerprint.equal
    let hash = Fingerprint.hash
  end)

  type ready = {
    pc : W.precomp;
    mutable kind : Pc.kind;
        (* requested kind recorded at build time; serves re-validate it
           against the live request (mutable only for the fault hook) *)
    mutable det_certified : F.t option;
  }

  (* a singular verdict is cached with its kernel vector, which a serve
     re-checks against the live input (else [stale_kernel]) *)
  type entry =
    | Ready of ready
    | Sing of { kernel : F.t array; report : O.report }

  (* cache slots carry a logical-clock stamp for the LRU capacity bound *)
  type slot = { mutable e : entry; mutable last_used : int }

  type cfg = {
    retries : int;
    card_s : int option;
    deadline_ns : int64 option;
    pool : Kp_util.Pool.t option;
    max_entries : int;
    precond : Pc.choice;
  }

  type stats = {
    hits : int;
    misses : int;
    evictions : int;
    capacity_evictions : int;
  }

  type t = {
    cfg : cfg;
    st : Random.State.t;
    cache : slot Tbl.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable capacity_evictions : int;
  }

  let create ?(retries = 10) ?card_s ?deadline_ns ?pool ?(max_entries = 64)
      ?precond:(pc_choice = Pc.default_choice ()) st =
    if max_entries < 1 then invalid_arg "Session.create: max_entries < 1";
    { cfg = { retries; card_s; deadline_ns; pool; max_entries;
              precond = pc_choice };
      st;
      cache = Tbl.create 8;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      capacity_evictions = 0 }

  let stats t =
    { hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      capacity_evictions = t.capacity_evictions }

  let touch t slot =
    t.clock <- t.clock + 1;
    slot.last_used <- t.clock

  (* capacity bound: before inserting a fresh entry into a full cache,
     drop the least-recently-used one.  Distinct from certificate-driven
     eviction — this is pure bookkeeping, no staleness implied, so it has
     its own counter and stats field. *)
  let evict_lru_if_full t =
    if Tbl.length t.cache >= t.cfg.max_entries then begin
      let victim = ref None in
      Tbl.iter
        (fun fp slot ->
          match !victim with
          | Some (_, best) when best <= slot.last_used -> ()
          | _ -> victim := Some (fp, slot.last_used))
        t.cache;
      match !victim with
      | Some (fp, _) ->
        Tbl.remove t.cache fp;
        t.capacity_evictions <- t.capacity_evictions + 1;
        Cnt.incr c_evict_capacity
      | None -> ()
    end

  let insert t fp e =
    evict_lru_if_full t;
    let slot = { e; last_used = 0 } in
    touch t slot;
    Tbl.replace t.cache fp slot

  (* the session's resolved preconditioner kind — part of every cache key
     (schema v2), so verdicts cached under one kind can never answer a
     lookup under another.  The entries are black-box prefixes, so [Auto]
     resolves as a black box does: the sparse butterfly *)
  let kind_of t = Pc.resolve ~sparse:true t.cfg.precond

  (* a word-sized field hashes its residues as they lie in the matrix;
     any other renders each entry *)
  let fingerprint_tagged ~tag (a : M.t) =
    let rows = a.M.rows and cols = a.M.cols in
    match F.kernel_hint with
    | Kp_field.Field_intf.Gfp_word _ ->
      Fingerprint.of_ints ~tag ~field:F.name ~rows ~cols a.M.data
    | Kp_field.Field_intf.Gf2_bits ->
      Fingerprint.of_ints ~tag ~field:F.name ~rows ~cols a.M.data
    | Kp_field.Field_intf.Generic ->
      Fingerprint.of_entries ~tag ~field:F.name ~rows ~cols
        ~to_string:F.to_string a.M.data

  let fingerprint (a : M.t) = fingerprint_tagged ~tag:"" a

  let fingerprint_of ?key t (a : M.t) =
    let tag = Pc.kind_name (kind_of t) in
    match key with
    | Some k ->
      Fingerprint.of_key ~tag ~field:F.name ~rows:a.M.rows ~cols:a.M.cols k
    | None -> fingerprint_tagged ~tag a

  (* per-call deadline override: a serving layer admits each request with
     its own monotonic budget, the session's configured deadline is only
     the default *)
  let dl t override =
    match override with Some _ -> override | None -> t.cfg.deadline_ns

  (* a certified black-box prefix of [a], drawn from the session state;
     the entry outlives the call, so its operator is prepared from a copy
     the caller cannot change *)
  let build ?deadline_ns t (a : M.t) =
    W.precompute ~retries:t.cfg.retries ?card_s:t.cfg.card_s
      ?deadline_ns:(dl t deadline_ns) ~precond:t.cfg.precond t.st
      (Bb.of_dense (M.copy a))

  (* First use builds the entry through the certified precompute loop; a
     Singular verdict is itself cached with its kernel vector, while
     transient failures (exhaustion, deadline) are NOT cached — the next
     call retries the build. *)
  let obtain ?key ?deadline_ns t (a : M.t) =
    let fp = fingerprint_of ?key t a in
    match Tbl.find_opt t.cache fp with
    | Some slot ->
      t.hits <- t.hits + 1;
      Cnt.incr c_hit;
      touch t slot;
      (fp, Ok slot.e)
    | None -> (
      t.misses <- t.misses + 1;
      Cnt.incr c_miss;
      match Span.with_ "session.build" @@ fun () -> build ?deadline_ns t a with
      | Ok (pc, _report) ->
        let e = Ready { pc; kind = kind_of t; det_certified = None } in
        insert t fp e;
        (fp, Ok e)
      | Error (O.Singular { kernel; report }) ->
        let e = Sing { kernel; report } in
        insert t fp e;
        (fp, Ok e)
      | Error e -> (fp, Error e))

  let evict t fp =
    if Tbl.mem t.cache fp then begin
      Tbl.remove t.cache fp;
      t.evictions <- t.evictions + 1;
      Cnt.incr c_evict
    end

  let poison_charpoly ?key t (a : M.t) f =
    let fp = fingerprint_of ?key t a in
    match Tbl.find_opt t.cache fp with
    | Some ({ e = Ready r; _ } as slot) ->
      let pc = { r.pc with W.f = f r.pc.W.f } in
      slot.e <- Ready { pc; kind = r.kind; det_certified = None };
      true
    | Some { e = Sing _; _ } | None -> false

  let poison_kind ?key t (a : M.t) kind =
    let fp = fingerprint_of ?key t a in
    match Tbl.find_opt t.cache fp with
    | Some { e = Ready r; _ } ->
      r.kind <- kind;
      r.det_certified <- None;
      true
    | Some { e = Sing _; _ } | None -> false

  (* cross-kind certificate guard: a Ready entry only serves when the kind
     recorded at build time matches the session's live kind.  Reachable only
     through a corrupted or poisoned entry (the fingerprint already keys by
     kind), and then it is a typed [Stale_cache], never a silent reuse. *)
  let kind_mismatch t (r : ready) =
    if r.kind = kind_of t then None
    else
      Some
        (Printf.sprintf
           "cached entry was built with preconditioner kind %s, session \
            expects %s"
           (Pc.kind_name r.kind)
           (Pc.kind_name (kind_of t)))

  let pooled_init t k f =
    match t.cfg.pool with
    | Some p when Kp_util.Pool.size p > 1 && k > 1 ->
      Cnt.incr c_pool_batch;
      Kp_util.Pool.parallel_init p k f
    | _ -> Array.init k f

  (* The pure per-RHS serve: cached-record application plus the live
     certificate A·x = b on the input itself, never on the cached
     operator.  No session mutation — safe to fan out on the pool. *)
  let serve_pure pc (a : M.t) b =
    match W.apply_precomp pc b with
    | exception Division_by_zero ->
      Error "division by zero applying cached generator"
    | x ->
      if Array.for_all2 F.equal (M.matvec a x) b then Ok x
      else Error "cached-record solution failed A.x = b"

  let serve_report rejs =
    { O.attempts = 1 + List.length rejs;
      card_s_final = 0;
      rejections = List.rev rejs }

  let prepend_rejections rejs (r : O.report) =
    { r with
      O.attempts = r.O.attempts + List.length rejs;
      rejections = List.rev_append rejs r.O.rejections }

  let stale_kernel = "cached kernel vector fails A.w = 0"

  let stale_rejection rejs detail =
    { O.attempt = 1 + List.length rejs; card_s = 0;
      reason = O.Stale_cache detail }

  let solve_many ?key ?deadline_ns t (a : M.t) (bs : F.t array array) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Session.solve_many: non-square";
    Array.iter
      (fun b ->
        if Array.length b <> n then
          invalid_arg "Session.solve_many: dimension mismatch")
      bs;
    let k = Array.length bs in
    Span.with_ "session.solve_many" @@ fun () ->
    (* one pre-split state per RHS, in argument order: repair randomness is a
       function of the session history alone, for any pool size *)
    let sts = Array.init k (fun _ -> Kp_util.Rng.split t.st) in
    let out = Array.make k None in
    let rejs = Array.make k [] in
    let unresolved () =
      Array.to_list
        (Array.of_seq
           (Seq.filter
              (fun i -> out.(i) = None)
              (Seq.init k (fun i -> i))))
    in
    let fresh_fallback i =
      (* last resort: a certified fresh solve with this RHS's pre-split
         state, its report carrying the stale-cache history *)
      match
        W.solve_preconditioned ~retries:t.cfg.retries ?card_s:t.cfg.card_s
          ?deadline_ns:(dl t deadline_ns) ~precond:t.cfg.precond sts.(i)
          (Bb.of_dense a) bs.(i)
      with
      | Ok (x, r) -> Ok (x, prepend_rejections rejs.(i) r)
      | Error e -> Error (O.with_report (prepend_rejections rejs.(i)) e)
    in
    let rec round rebuilds =
      match unresolved () with
      | [] -> ()
      | todo -> (
        match obtain ?key ?deadline_ns t a with
        | _, Error e ->
          List.iter (fun i -> out.(i) <- Some (Error e)) todo
        | fp, Ok (Sing { kernel; report }) ->
          if Lv.is_kernel ~apply:(M.matvec a) kernel then
            List.iter
              (fun i -> out.(i) <- Some (Error (O.Singular { kernel; report })))
              todo
          else
            record rebuilds fp todo (List.map (fun _ -> Error stale_kernel) todo)
        | fp, Ok (Ready r) ->
          let todo_arr = Array.of_list todo in
          let served =
            match kind_mismatch t r with
            | Some detail ->
              Array.make (Array.length todo_arr) (Error detail)
            | None ->
              pooled_init t (Array.length todo_arr) (fun j ->
                  serve_pure r.pc a bs.(todo_arr.(j)))
          in
          record rebuilds fp todo (Array.to_list served))
    (* record each serve; any failed certificate evicts the entry, then
       rebuilds while the budget lasts and falls back fresh after it *)
    and record rebuilds fp todo served =
      let any_stale = ref false in
      List.iter2
        (fun i res ->
          match res with
          | Ok x -> out.(i) <- Some (Ok (x, serve_report rejs.(i)))
          | Error detail ->
            any_stale := true;
            rejs.(i) <- stale_rejection rejs.(i) detail :: rejs.(i))
        todo served;
      if !any_stale then begin
        evict t fp;
        if rebuilds > 0 then round (rebuilds - 1)
        else
          List.iter (fun i -> out.(i) <- Some (fresh_fallback i)) (unresolved ())
      end
    in
    round (max 1 t.cfg.retries);
    Array.map (function Some r -> r | None -> assert false) out

  let solve ?key ?deadline_ns t a b =
    (solve_many ?key ?deadline_ns t a [| b |]).(0)

  (* the fresh engine a det falls back to, its report carrying the
     stale-cache history *)
  let fresh_det ?deadline_ns t (a : M.t) rejs =
    match
      W.det ~retries:t.cfg.retries ?card_s:t.cfg.card_s
        ?deadline_ns:(dl t deadline_ns) ~precond:t.cfg.precond t.st
        (Bb.of_dense a)
    with
    | Ok (d, r) -> Ok (d, prepend_rejections rejs r)
    | Error e -> Error (O.with_report (prepend_rejections rejs) e)

  let det ?key ?deadline_ns t (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Session.det: non-square";
    Span.with_ "session.det" @@ fun () ->
    let rec go rebuilds rejs =
      (* a failed certificate: evict, then rebuild while the budget lasts
         and serve fresh after it *)
      let stale fp detail =
        let rejs = stale_rejection rejs detail :: rejs in
        evict t fp;
        if rebuilds > 0 then go (rebuilds - 1) rejs
        else fresh_det ?deadline_ns t a rejs
      in
      match obtain ?key ?deadline_ns t a with
      | _, Error e -> Error (O.with_report (prepend_rejections rejs) e)
      | fp, Ok (Sing { kernel; report }) ->
        if Lv.is_kernel ~apply:(M.matvec a) kernel then
          Ok (F.zero, prepend_rejections rejs report)
        else stale fp stale_kernel
      | fp, Ok (Ready r) -> (
        match (kind_mismatch t r, r.det_certified) with
        | Some detail, _ -> stale fp detail
        | None, Some d -> Ok (d, serve_report rejs)
        | None, None -> (
          let cached = W.det_of_precomp r.pc in
          (* the two-evaluation discipline with the cache as one side: one
             fresh independent evaluation must agree before the cached
             value is served (and is then certified for later serves); a
             fresh singular proof disagrees with any cached entry *)
          match build ?deadline_ns t a with
          | Ok (fresh, rep2) when F.equal cached (W.det_of_precomp fresh) ->
            r.det_certified <- Some cached;
            Ok (cached, prepend_rejections rejs rep2)
          | Ok _ | Error (O.Singular _) ->
            stale fp "cached determinant disagrees with fresh evaluation"
          | Error e -> Error (O.with_report (prepend_rejections rejs) e)))
    in
    go (max 1 t.cfg.retries) []

  let inverse ?key ?deadline_ns t (a : M.t) =
    let n = a.M.rows in
    if a.M.cols <> n then invalid_arg "Session.inverse: non-square";
    Span.with_ "session.inverse" @@ fun () ->
    (* n cached-prefix column solves — the generator is computed once per
       matrix, not n times — assembled exactly like the fresh engine *)
    let bs =
      Array.init n (fun j ->
          Array.init n (fun i -> if i = j then F.one else F.zero))
    in
    I.merge_columns ~n (solve_many ?key ?deadline_ns t a bs)
end
