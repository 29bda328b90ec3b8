(* In-process half of the benchmark; perfbench/run.py runs it.

     probe.exe sparse --seed S --seconds T --trace 0|1 [--setup-only]
       The `sparse` workload: Wiedemann.solve_preconditioned and
       Wiedemann.det on a fresh Sparse.random_nonsingular matrix per op,
       GF(998244353), default preconditioner.  Answers are checked against
       values planted by the input construction, never against the
       library's own elimination.

     probe.exe layers --prime P --n N --det-n D --seed S
       Per-layer probes: times calls into each layer's public functions
       on inputs sized like the calling workload (n = N; the charpoly
       probes at the det size D).

   Each mode prints one JSON object on stdout.  Benchmark-side spans are
   kept in memory and emitted in that object when the mode ends. *)

module Clock = Kp_obs.Clock

let now () = Clock.now_ns ()
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* ---- minimal JSON writer ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec to_buf b = function
  | Num f -> Buffer.add_string b (Printf.sprintf "%.9g" f)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buf b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        to_buf b (Str k);
        Buffer.add_char b ':';
        to_buf b v)
      kvs;
    Buffer.add_char b '}'

let print_json v =
  let b = Buffer.create 4096 in
  to_buf b v;
  print_endline (Buffer.contents b)

(* ---- benchmark-side spans (in memory until the mode ends) ---- *)

let t_origin = now ()
let bench_spans = ref []

let span name f =
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      bench_spans :=
        (name, Int64.sub t0 t_origin, Int64.sub (now ()) t_origin)
        :: !bench_spans)

let spans_json () =
  Arr
    (List.rev_map
       (fun (name, s, e) ->
         Obj [ ("name", Str name); ("start_ns", Int (Int64.to_int s));
               ("end_ns", Int (Int64.to_int e)) ])
       !bench_spans)

let lib_counters_json () =
  Obj (List.map (fun (k, v) -> (k, Int v)) (Kp_obs.Counter.snapshot ()))

let lib_spans_json () =
  Arr
    (List.map
       (fun (s : Kp_obs.Span.stat) ->
         Obj [ ("path", Str s.path); ("count", Int s.count);
               ("total_ns", Int (Int64.to_int s.total_ns)) ])
       (Kp_obs.Span.snapshot ()))

(* VmHWM of this process, in kB *)
let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k land 1 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* median seconds of one call of [f], timed over [reps] repetitions *)
let time_median ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         secs_since t0))

(* median seconds per call of a cheap [f]: batches sized to ~5 ms *)
let time_per_call f =
  let calls = ref 1 in
  let batch k =
    let t0 = now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    secs_since t0
  in
  while batch !calls < 0.005 && !calls < 1 lsl 24 do
    calls := !calls * 2
  done;
  median (List.init 7 (fun _ -> batch !calls /. float_of_int !calls))

module Run (F : Kp_field.Field_intf.FIELD with type t = int) = struct
  module C = Kp_poly.Conv.Karatsuba_field (F)
  module Sp = Kp_matrix.Sparse.Make (F)
  module Dn = Kp_matrix.Dense.Make (F)
  module W = Kp_core.Wiedemann.Make (F)
  module S = Kp_core.Solver.Make (F) (C)
  module Pc = Kp_precond.Precond
  module PM = Kp_precond.Precond.Make (F) (C)
  module BM = Kp_seqgen.Berlekamp_massey.Make (F)
  module O = Kp_robust.Outcome

  let rand_vec st n = Array.init n (fun _ -> F.random st)

  (* the benchmark's own CSR product, so the oracle does not depend on
     the library's matvec *)
  let csr_matvec a x =
    let rp, ci, vs = Sp.csr a in
    Array.init (Sp.rows a) (fun i ->
        let acc = ref F.zero in
        for k = rp.(i) to rp.(i + 1) - 1 do
          acc := F.add !acc (F.mul vs.(k) x.(ci.(k)))
        done;
        !acc)

  (* random_nonsingular is a row permutation of D + N (D invertible
     diagonal, N strictly upper triangular), so each row's leftmost entry
     is its D entry: det = sign(π)·∏ d *)
  let planted_det a =
    let rp, ci, vs = Sp.csr a in
    let n = Sp.rows a in
    let col = Array.make n (-1) in
    let prod = ref F.one in
    for r = 0 to n - 1 do
      let best = ref (-1) in
      for k = rp.(r) to rp.(r + 1) - 1 do
        if !best < 0 || ci.(k) < ci.(!best) then best := k
      done;
      col.(r) <- ci.(!best);
      prod := F.mul !prod vs.(!best)
    done;
    (* sign by cycle decomposition *)
    let seen = Array.make n false in
    let sign = ref 1 in
    for r = 0 to n - 1 do
      if not seen.(r) then begin
        let len = ref 0 and j = ref r in
        while not seen.(!j) do
          seen.(!j) <- true;
          incr len;
          j := col.(!j)
        done;
        if !len land 1 = 0 then sign := - !sign
      end
    done;
    if !sign < 0 then F.neg !prod else !prod

  (* ---- sparse workload ---- *)

  let sparse_density ~n ~per_row =
    (* D contributes one entry per row, N about density·(n-1)/2 *)
    2. *. float_of_int (per_row - 1) /. float_of_int (n - 1)

  type op_result = { kind : string; seconds : float; verdict : string; detail : string }

  let sparse_op ~seed ~n ~density i =
    let gen = Kp_util.Rng.make ((seed * 1_000_003) + i) in
    let a = Sp.random_nonsingular gen n ~density in
    let st = Kp_util.Rng.make ((seed * 7919) + i) in
    let bb = W.Bb.of_sparse a in
    if i land 1 = 0 then begin
      let x = rand_vec gen n in
      let b = csr_matvec a x in
      let t0 = now () in
      let r = W.solve_preconditioned st bb b in
      let seconds = secs_since t0 in
      match r with
      | Ok (y, _) when Array.for_all2 F.equal x y ->
        { kind = "solve"; seconds; verdict = "ok"; detail = "" }
      | Ok _ -> { kind = "solve"; seconds; verdict = "wrong"; detail = "x differs from planted" }
      | Error e -> { kind = "solve"; seconds; verdict = "error"; detail = O.error_to_string e }
    end
    else begin
      let want = planted_det a in
      let t0 = now () in
      let r = W.det st bb in
      let seconds = secs_since t0 in
      match r with
      | Ok (d, _) when F.equal d want ->
        { kind = "det"; seconds; verdict = "ok"; detail = "" }
      | Ok (d, _) ->
        { kind = "det"; seconds; verdict = "wrong";
          detail = Printf.sprintf "det %s, planted %s" (F.to_string d) (F.to_string want) }
      | Error e -> { kind = "det"; seconds; verdict = "error"; detail = O.error_to_string e }
    end

  let sparse ~seed ~seconds ~trace ~setup_only ~n =
    let density = sparse_density ~n ~per_row:8 in
    (* set-up: the untimed warm-up op, which pays the lazy initialisation *)
    let t0 = now () in
    let warm = sparse_op ~seed:(seed + 1_000_000) ~n ~density 0 in
    let setup_s = secs_since t0 in
    let ops = ref [] in
    if not setup_only then begin
      Kp_obs.Export.reset ();
      let t_start = now () in
      let i = ref 0 in
      (* at least one solve and one det; when traced, one of each traced *)
      let min_ops = if trace then 4 else 2 in
      while !i < min_ops || secs_since t_start < seconds do
        (* traced runs alternate traced and untraced ops, so the tracing
           overhead is measured inside one run *)
        let traced = trace && !i land 2 = 2 in
        let r =
          if traced then
            span ("sparse." ^ if !i land 1 = 0 then "solve" else "det") (fun () ->
                Kp_obs.Span.with_ "bench.sparse" (fun () ->
                    sparse_op ~seed ~n ~density !i))
          else sparse_op ~seed ~n ~density !i
        in
        ops := (r, traced) :: !ops;
        incr i
      done
    end;
    print_json
      (Obj
         ([ ("setup_s", Num setup_s);
            ("warmup_verdict", Str warm.verdict);
            ("vmhwm_kb", Int (vmhwm_kb ()));
            ( "ops",
              Arr
                (List.rev_map
                   (fun (r, traced) ->
                     Obj [ ("kind", Str r.kind); ("seconds", Num r.seconds);
                           ("verdict", Str r.verdict); ("detail", Str r.detail);
                           ("traced", Bool traced) ])
                   !ops) ) ]
         @
         if trace then
           [ ("counters", lib_counters_json ()); ("spans", lib_spans_json ());
             ("bench_spans", spans_json ()) ]
         else []))

  (* ---- per-layer probes ---- *)

  (* the solvers' default sample-set size *)
  let card_s n =
    let bound = max (12 * n * n) 64 in
    match F.cardinality with Some q -> min bound q | None -> bound

  let layers ~seed ~n ~det_n =
    let st = Kp_util.Rng.make seed in
    let charpoly ~n t = S.charpoly_for_field ~n ~n t in
    let m = ref [] in
    let put name v = m := (name, Num v) :: !m in
    span "kernel.matvec" (fun () ->
        let a = Dn.random st 512 512 and v = rand_vec st 512 in
        put "kernel.matvec_us" (1e6 *. time_per_call (fun () -> Dn.matvec a v)));
    span "matrix.sparse_matvec" (fun () ->
        let a = Sp.random_nonsingular st 1000 ~density:(sparse_density ~n:1000 ~per_row:8) in
        let v = rand_vec st 1000 in
        put "matrix.sparse_matvec_us" (1e6 *. time_per_call (fun () -> Sp.matvec a v)));
    span "precond.butterfly_apply" (fun () ->
        let p = PM.build ~charpoly ~card_s:(card_s n) ~n Pc.Sparse_butterfly st in
        let v = rand_vec st n in
        put "precond.butterfly_apply_us" (1e6 *. time_per_call (fun () -> p.Pc.apply v)));
    span "precond.dense_det" (fun () ->
        let p = PM.build ~charpoly ~card_s:(card_s det_n) ~n:det_n Pc.Dense_hd st in
        put "precond.dense_det_ms" (1e3 *. time_median ~reps:3 p.Pc.det));
    List.iter
      (fun kind ->
        let name = Pc.kind_name kind in
        span ("precond.build." ^ name) (fun () ->
            put ("precond.build_us." ^ name)
              (1e6 *. time_median ~reps:7 (fun () ->
                   PM.build ~charpoly ~card_s:(card_s n) ~n kind st))))
      Pc.all_kinds;
    span "structured.charpoly" (fun () ->
        (* a Toeplitz input at the det size: 2n-1 diagonals *)
        let t = rand_vec st ((2 * det_n) - 1) in
        put "structured.charpoly_ms" (1e3 *. time_median ~reps:3 (fun () -> charpoly ~n:det_n t)));
    span "seqgen.bm" (fun () ->
        let s = rand_vec st (2 * n) in
        put "seqgen.bm_ms" (1e3 *. time_median ~reps:5 (fun () -> BM.minimal_polynomial s)));
    span "obs.span" (fun () ->
        put "obs.span_ns" (1e9 *. time_per_call (fun () -> Kp_obs.Span.with_ "bench.noop" Fun.id)));
    List.rev !m
end

(* session and serve-protocol probes run on the serve workload's field and
   size: GF(998244353), n = 64 *)
module Serve_probe = struct
  module F = (val Kp_field.Gfp.make 998_244_353
               : Kp_field.Field_intf.FIELD with type t = int)
  module C = Kp_poly.Conv.Karatsuba_field (F)
  module Sess = Kp_session.Session.Make (F) (C)
  module P = Kp_serve.Protocol

  let n = 64

  let run ~seed =
    let st = Kp_util.Rng.make (seed + 17) in
    let a = Sess.M.init n n (fun _ _ -> F.random st) in
    let fresh_b () =
      let x = Array.init n (fun _ -> F.random st) in
      (x, Sess.M.matvec a x)
    in
    let sess = Sess.create st in
    let _, b0 = fresh_b () in
    ignore (Sess.solve ~key:"k0" sess a b0);
    let wrong = ref 0 in
    let t =
      span "session.keyed_solve" (fun () ->
          median
            (List.init 15 (fun _ ->
                 let x, b = fresh_b () in
                 let t0 = now () in
                 let r = Sess.solve ~key:"k0" sess a b in
                 let dt = secs_since t0 in
                 (match r with
                 | Ok (y, _) when Array.for_all2 F.equal x y -> ()
                 | _ -> incr wrong);
                 dt)))
    in
    let line =
      P.render_request
        { P.id = Some "p1"; op = P.Solve { m = P.Keyed "k0"; b = snd (fresh_b ()) };
          engine = P.E_auto; block_factor = None; deadline_ms = None }
    in
    let parse_s =
      span "serve.parse" (fun () ->
          time_per_call (fun () -> P.parse_request ~max_n:512 line))
    in
    ([ ("session.keyed_solve_ms", Num (1e3 *. t)); ("serve.parse_us", Num (1e6 *. parse_s)) ],
     !wrong)
end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, flags =
    match args with m :: rest -> (m, rest) | [] -> ("", [])
  in
  let rec get name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> get name rest
    | [] -> None
  in
  let int_flag name default =
    Option.fold ~none:default ~some:int_of_string (get name flags)
  in
  let seed = int_flag "--seed" 1 in
  let field prime =
    match Kp_field.Gfp.make prime with
    | m -> m
    | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  match mode with
  | "sparse" ->
    let module F = (val field 998_244_353) in
    let module R = Run (F) in
    R.sparse ~seed
      ~seconds:(float_of_int (int_flag "--seconds" 10))
      ~trace:(int_flag "--trace" 0 = 1)
      ~setup_only:(List.mem "--setup-only" flags)
      ~n:(int_flag "--n" 1000)
  | "layers" ->
    let module F = (val field (int_flag "--prime" 998_244_353)) in
    let module R = Run (F) in
    let layer = R.layers ~seed ~n:(int_flag "--n" 512) ~det_n:(int_flag "--det-n" 32) in
    let serve, wrong = Serve_probe.run ~seed in
    print_json
      (Obj [ ("metrics", Obj (layer @ serve)); ("wrong", Int wrong);
             ("bench_spans", spans_json ()) ])
  | _ ->
    prerr_endline
      "usage: probe.exe sparse|layers [--seed S] [--seconds T] [--trace 0|1] \
       [--setup-only] [--n N] [--det-n D] [--prime P]";
    exit 2
