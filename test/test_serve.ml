(* The serving layer: wire format, protocol golden cases, circuit
   breakers, the engine degradation ladder, and the daemon end to end
   (admission control, chaos demotion/re-promotion, graceful drain).

   Server tests run a real daemon on a Unix socket under a temp path,
   with the breaker clock injected so demotion and re-promotion are
   deterministic facts, not timing luck. *)

module F = Kp_field.Fields.Gf_ntt
module CK = Kp_poly.Conv.Karatsuba (F)
module M = Kp_matrix.Dense.Make (F)
module O = Kp_robust.Outcome
module Fault = Kp_robust.Fault
module FaultF = Kp_robust.Fault.Field (F)
module Wire = Kp_serve.Wire
module P = Kp_serve.Protocol
module Br = Kp_serve.Breaker
module En = Kp_serve.Engines.Make (F) (CK)
module G = Kp_matrix.Gauss.Make (F)
module Srv = Kp_serve.Server.Make (F) (CK)
module Cl = Kp_serve.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let st0 k = Kp_util.Rng.make (77000 + k)

let random_system st n =
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  (a, x_true, b)

let sock_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kp-serve-test-%d-%d.sock" (Unix.getpid ()) !k)

(* ---- wire ---- *)

let test_wire_roundtrip () =
  let v =
    Wire.Obj
      [
        ("id", Wire.Str "r\"1\n");
        ("xs", Wire.Arr [ Wire.Int 0; Wire.Int (-3); Wire.Null ]);
        ("ok", Wire.Bool true);
      ]
  in
  match Wire.parse (Wire.render v) with
  | Ok v' -> check_bool "roundtrip" true (v = v')
  | Error m -> Alcotest.fail m

let test_wire_rejects () =
  let bad s =
    match Wire.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "trailing garbage" true (bad "{} x");
  check_bool "unterminated string" true (bad "{\"a\":\"b");
  check_bool "bare word" true (bad "pong");
  check_bool "deep nesting" true
    (bad (String.concat "" (List.init 80 (fun _ -> "[") )));
  check_bool "huge int" true (bad "123456789123456789123456789")

(* ---- protocol golden ---- *)

let parse line = P.parse_request ~max_n:64 line

let test_protocol_parse_ok () =
  (match parse {|{"id":"r1","op":"ping"}|} with
  | Ok { id = Some "r1"; op = P.Ping; _ } -> ()
  | _ -> Alcotest.fail "ping");
  (match
     parse
       {|{"id":"r2","op":"solve","n":2,"a":[1,2,3,4],"b":[5,6],"key":"m","engine":"block","block_factor":2,"deadline_ms":250}|}
   with
  | Ok
      {
        id = Some "r2";
        op = P.Solve { m = P.Inline { n = 2; key = Some "m"; _ }; b = [| 5; 6 |] };
        engine = P.E_block;
        block_factor = Some 2;
        deadline_ms = Some 250;
      } -> ()
  | _ -> Alcotest.fail "solve inline");
  match parse {|{"op":"det","key":"m"}|} with
  | Ok { id = None; op = P.Det (P.Keyed "m"); engine = P.E_auto; _ } -> ()
  | _ -> Alcotest.fail "det by key"

let expect_reject line code =
  match parse line with
  | Error r -> check_str ("code for " ^ line) code r.P.code
  | Ok _ -> Alcotest.fail ("accepted: " ^ line)

let test_protocol_rejects () =
  expect_reject "{nope" "malformed_json";
  expect_reject "[1,2]" "not_an_object";
  expect_reject {|{"op":"frobnicate"}|} "unknown_op";
  expect_reject {|{"op":"solve","n":2,"a":[1,2,3,4]}|} "missing_field";
  expect_reject {|{"op":"det"}|} "missing_field";
  expect_reject {|{"op":"det","n":2,"a":[1,2,3]}|} "bad_dimensions";
  expect_reject {|{"op":"det","n":0,"a":[]}|} "bad_dimensions";
  expect_reject {|{"op":"det","n":65,"a":[]}|} "too_large";
  expect_reject {|{"op":"solve","key":"m","b":"x"}|} "bad_field";
  expect_reject {|{"op":"solve","key":"m","b":[1],"engine":"warp"}|} "bad_field";
  expect_reject {|{"op":"batch","key":"m","bs":[]}|} "bad_dimensions";
  expect_reject {|{"op":"det","key":"m","deadline_ms":0}|} "bad_field";
  (* the dense reference has its own, smaller bound, checked before the
     entries are read *)
  let n = P.dense_max_n + 1 in
  let dense_det engine =
    P.parse_request ~max_n:512
      (Printf.sprintf {|{"op":"det","n":%d,"a":[],"engine":%S}|} n engine)
  in
  (match dense_det "dense" with
  | Error r -> check_str "dense above its bound" "too_large" r.P.code
  | Ok _ -> Alcotest.fail "dense accepted above its bound");
  match dense_det "auto" with
  | Error r -> check_str "auto reads the entries" "bad_dimensions" r.P.code
  | Ok _ -> Alcotest.fail "empty matrix accepted"

let test_protocol_render_roundtrip () =
  let req =
    {
      P.id = Some "r9";
      op = P.Batch { m = P.Keyed "m1"; bs = [| [| 1; 2 |]; [| 3; 4 |] |] };
      engine = P.E_scalar;
      block_factor = None;
      deadline_ms = Some 100;
    }
  in
  match parse (P.render_request req) with
  | Ok req' -> check_bool "request roundtrip" true (req = req')
  | Error r -> Alcotest.fail r.P.detail

let test_protocol_responses () =
  let ok_line = P.ok ~id:(Some "a") [ ("rank", Wire.Int 3) ] in
  (match Wire.parse ok_line with
  | Ok j ->
    check_bool "id echoed" true (P.response_id j = Some "a");
    check_bool "status ok" true (P.response_status j = Some "ok")
  | Error m -> Alcotest.fail m);
  let e_line =
    P.error ~id:None ~kernel:(fun _ -> Wire.Arr [])
      (O.Overloaded { queue_depth = 7; retry_after_ms = 350 })
  in
  match Wire.parse e_line with
  | Ok j -> (
    check_bool "status error" true (P.response_status j = Some "error");
    match Wire.member "error" j with
    | Some err ->
      check_bool "taxonomy tag" true
        (Option.bind (Wire.member "error" err) Wire.to_str
        = Some "overloaded");
      check_bool "retry hint" true
        (Option.bind (Wire.member "retry_after_ms" err) Wire.to_int
        = Some 350)
    | None -> Alcotest.fail "no error payload")
  | Error m -> Alcotest.fail m

(* ---- breaker ---- *)

let test_breaker_lifecycle () =
  let now = ref 0L in
  let b = Br.create ~threshold:2 ~cooldown_ns:100L ~now:(fun () -> !now) "t" in
  check_bool "starts closed" true (Br.state b = Br.Closed);
  Br.record_failure b;
  check_bool "one failure stays closed" true (Br.admits b);
  Br.record_failure b;
  check_bool "threshold opens" true (Br.state b = Br.Open);
  check_bool "open refuses" false (Br.admits b);
  check_int "gauge open" 2 (Br.state_code b);
  now := 101L;
  check_bool "cooldown half-opens" true (Br.state b = Br.Half_open);
  check_bool "probe admitted" true (Br.admits b);
  Br.record_failure b;
  check_bool "failed probe reopens" true (Br.state b = Br.Open);
  now := 250L;
  check_bool "half-open again" true (Br.state b = Br.Half_open);
  Br.record_success b;
  check_bool "success closes" true (Br.state b = Br.Closed);
  check_int "failure run reset" 0 (Br.consecutive_failures b);
  check_int "gauge closed" 0 (Br.state_code b)

(* ---- the engine ladder (no sockets) ---- *)

let test_ladder_block_demotes_then_repromotes () =
  (* p_abort = 1: every wrapped field op aborts while the budget lasts,
     so the block rung burns its retry budget and fails; the budget is
     then spent and the scalar rung serves clean — demotion in one
     request, deterministically *)
  let plan = Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:10 ~seed:5 () in
  let module FF = (val FaultF.wrap plan) in
  let module CF = Kp_poly.Conv.Karatsuba (FF) in
  let module E = Kp_serve.Engines.Make (FF) (CF) in
  let st = st0 1 in
  let a, _, b = random_system st 6 in
  let fa = E.M.init 6 6 (fun i j -> M.get a i j) in
  let now = ref 0L in
  (* dense preconditioner pinned, so the rungs this test follows spend
     the fault budget on the same draws whatever KP_PRECOND selects *)
  let precond = Kp_precond.Precond.Forced Kp_precond.Precond.Dense_hd in
  let session = E.Sess.create ~precond (st0 2) in
  let eng =
    E.create ~breaker_threshold:1 ~breaker_cooldown_ns:1_000L
      ~now:(fun () -> !now)
      ~session ~precond (st0 3)
  in
  (match E.solve ~engine:P.E_block eng fa b with
  | Ok (x, served_by, _) ->
    check_str "demoted to scalar" "scalar" served_by;
    check_bool "answer correct under clean arithmetic" true
      (Array.for_all2 F.equal (M.matvec a x) b)
  | Error e -> Alcotest.fail (O.error_to_string e));
  check_bool "block breaker opened" true
    (List.assoc "block" (E.breaker_states eng) = Br.Open);
  (* still open: the block rung is skipped outright *)
  (match E.solve ~engine:P.E_block eng fa b with
  | Ok (_, served_by, _) -> check_str "skip while open" "scalar" served_by
  | Error e -> Alcotest.fail (O.error_to_string e));
  (* cooldown passes; the probe runs clean and re-promotes *)
  now := 2_000L;
  (match E.solve ~engine:P.E_block eng fa b with
  | Ok (x, served_by, _) ->
    check_str "re-promoted" "block" served_by;
    check_bool "probe answer correct" true
      (Array.for_all2 F.equal (M.matvec a x) b)
  | Error e -> Alcotest.fail (O.error_to_string e));
  check_bool "block breaker closed again" true
    (List.assoc "block" (E.breaker_states eng) = Br.Closed)

let test_ladder_routes_and_singular () =
  let st = st0 11 in
  let a, _, b = random_system st 5 in
  let session = En.Sess.create (st0 12) in
  let eng = En.create ~session (st0 13) in
  (match En.solve ~engine:P.E_auto eng a b with
  | Ok (_, served_by, _) -> check_str "auto -> scalar" "scalar" served_by
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.solve ~engine:P.E_dense eng a b with
  | Ok (x, served_by, _) ->
    check_str "dense rung" "dense" served_by;
    check_bool "dense verified" true (Array.for_all2 F.equal (M.matvec a x) b)
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.det ~engine:P.E_block eng a with
  | Ok (d, served_by, _) ->
    check_str "block det" "block" served_by;
    let module G = Kp_matrix.Gauss.Make (F) in
    check_bool "det agrees with elimination" true (F.equal d (G.det a))
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.rank ~engine:P.E_auto eng a with
  | Ok (r, _) -> check_int "rank" 5 r
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.inverse ~engine:P.E_auto eng a with
  | Ok (inv, served_by, _) ->
    check_str "inverse rung" "scalar" served_by;
    check_bool "inverse verified" true (M.equal (M.mul a inv) (M.identity 5))
  | Error e -> Alcotest.fail (O.error_to_string e));
  (* singular input: an answer, not an engine failure — breakers stay shut *)
  let s = M.init 4 4 (fun i _ -> if i = 0 then F.zero else F.one) in
  (match En.solve ~engine:P.E_auto eng s (Array.make 4 F.one) with
  | Error (O.Singular { kernel; _ }) ->
    check_bool "checked kernel vector" true
      (Array.exists (fun x -> not (F.is_zero x)) kernel
      && Array.for_all F.is_zero (M.matvec s kernel))
  | Ok _ -> Alcotest.fail "singular system accepted"
  | Error e -> Alcotest.fail (O.error_to_string e));
  check_bool "scalar breaker still closed" true
    (List.assoc "scalar" (En.breaker_states eng) = Br.Closed)

let test_ladder_rank_block_is_elimination () =
  (* the block engine has no rank route: a block rank ladder is
     elimination alone, so a GF(2) input gets its exact rank and the
     block breaker sees nothing *)
  let module F2 = Kp_field.Gf2 in
  let module M2 = Kp_matrix.Dense.Make (F2) in
  let module En2 = Kp_serve.Engines.Make (F2) (Kp_poly.Conv.Karatsuba (F2)) in
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let fail0 = counter "serve.engine.block.fail" in
  let precond = Kp_precond.Precond.(Forced Dense_hd) in
  let a = M2.random_nonsingular (Kp_util.Rng.make 2) 4 in
  let eng = En2.create ~precond (Kp_util.Rng.make 1002) in
  (match En2.rank ~engine:P.E_block eng a with
  | Ok (r, served_by) ->
    check_str "elimination answered" "elimination" served_by;
    check_int "true rank" 4 r
  | Error e -> Alcotest.fail (O.error_to_string e));
  check_int "block rung never ran" fail0 (counter "serve.engine.block.fail")

let gauss_solve a b = Option.get (G.solve a b)

let test_ladder_block_batch () =
  (* the block rung serves a batch itself, every right-hand side riding
     one block-Krylov sequence *)
  let st = st0 41 in
  let a = M.random_nonsingular st 6 in
  let bs = Array.init 3 (fun _ -> Array.init 6 (fun _ -> F.random st)) in
  let eng = En.create (st0 42) in
  match En.solve_batch ~block_factor:2 ~engine:P.E_block eng a bs with
  | Ok (xs, served_by, _) ->
    check_str "block rung served the batch" "block" served_by;
    Array.iteri
      (fun i x ->
        check_bool
          (Printf.sprintf "batch[%d] = Gauss" i)
          true
          (Array.for_all2 F.equal x (gauss_solve a bs.(i))))
      xs
  | Error e -> Alcotest.fail (O.error_to_string e)

let test_ladder_dense_reference () =
  (* E_dense is the Theorem-4 reference rung alone, on every operation *)
  let st = st0 51 in
  let a, _, b = random_system st 5 in
  let eng = En.create (st0 52) in
  (match En.solve ~engine:P.E_dense eng a b with
  | Ok (x, served_by, _) ->
    check_str "solve served by dense" "dense" served_by;
    check_bool "solve = Gauss" true (Array.for_all2 F.equal x (gauss_solve a b))
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.det ~engine:P.E_dense eng a with
  | Ok (d, served_by, _) ->
    check_str "det served by dense" "dense" served_by;
    check_bool "det = Gauss" true (F.equal d (G.det a))
  | Error e -> Alcotest.fail (O.error_to_string e));
  (match En.rank ~engine:P.E_dense eng a with
  | Ok (r, served_by) ->
    check_str "rank served by dense" "dense" served_by;
    check_int "rank = Gauss" (G.rank a) r
  | Error e -> Alcotest.fail (O.error_to_string e));
  match En.inverse ~engine:P.E_dense eng a with
  | Ok (inv, served_by, _) ->
    check_str "inverse served by dense" "dense" served_by;
    check_bool "inverse = Gauss" true (M.equal inv (Option.get (G.inverse a)))
  | Error e -> Alcotest.fail (O.error_to_string e)

let test_ladder_dense_inverse_route () =
  (* the dense inverse is the Theorem-6 circuit only up to circuit_max_n
     and under the dense precond — pool or not; otherwise it is n
     Theorem-4 solves and no circuit is traced *)
  let module Pc = Kp_precond.Precond in
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let circuit_ran ?pool ~precond n =
    let a = M.random_nonsingular (st0 (80 + n)) n in
    let eng = En.create ?pool ~precond (st0 81) in
    let before = counter "inverse.attempts" in
    match En.inverse ~engine:P.E_dense eng a with
    | Ok (inv, served_by, _) ->
      check_str "served by dense" "dense" served_by;
      check_bool "A * A^-1 = I" true (M.equal (M.mul a inv) (M.identity n));
      counter "inverse.attempts" > before
    | Error e -> Alcotest.fail (O.error_to_string e)
  in
  check_bool "circuit at small n" true (circuit_ran ~precond:Pc.Auto 4);
  Kp_util.Pool.with_pool ~domains:2 (fun pool ->
      check_bool "circuit on a pool too" true
        (circuit_ran ~pool ~precond:Pc.Auto 4));
  check_bool "no circuit under the butterfly" false
    (circuit_ran ~precond:(Pc.Forced Pc.Sparse_butterfly) 4);
  check_bool "no circuit above circuit_max_n" false
    (circuit_ran ~precond:Pc.Auto (En.circuit_max_n + 1))

let test_ladder_gf2_inverse () =
  (* over GF(2) the scalar rung may end in a typed error; the walk then
     reaches elimination, so the answer is an inverse either way *)
  let module F2 = Kp_field.Gf2 in
  let module M2 = Kp_matrix.Dense.Make (F2) in
  let module En2 = Kp_serve.Engines.Make (F2) (Kp_poly.Conv.Karatsuba (F2)) in
  for seed = 1 to 5 do
    let a = M2.random_nonsingular (Kp_util.Rng.make seed) 6 in
    let eng = En2.create (st0 (60 + seed)) in
    match En2.inverse ~engine:P.E_auto eng a with
    | Ok (inv, _, _) ->
      check_bool
        (Printf.sprintf "seed %d: A * A^-1 = I" seed)
        true
        (M2.equal (M2.mul a inv) (M2.identity 6))
    | Error e -> Alcotest.fail (O.error_to_string e)
  done

let test_ladder_scalar_without_session () =
  (* without a shared session the scalar rung is the fresh black-box
     engine itself: no session is built, and the answer and attempts are
     those of a direct call on the same state *)
  let module W = Kp_core.Wiedemann.Make (F) in
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let precond = Kp_precond.Precond.default_choice () in
  let st = st0 71 in
  let a, _, b = random_system st 24 in
  let misses0 = counter "session.cache.miss" in
  let eng = En.create ~precond (st0 72) and direct = st0 72 in
  (match
     ( En.solve ~engine:P.E_auto eng a b,
       W.solve_preconditioned ~precond direct (W.Bb.of_dense a) b )
   with
  | Ok (x, served_by, rep), Ok (x', rep') ->
    check_str "solve served by scalar" "scalar" served_by;
    check_bool "solve = direct" true (Array.for_all2 F.equal x x');
    check_int "solve attempts = direct" rep'.O.attempts rep.O.attempts
  | Error e, _ | _, Error e -> Alcotest.fail (O.error_to_string e));
  (match (En.det ~engine:P.E_auto eng a, W.det ~precond direct (W.Bb.of_dense a))
   with
  | Ok (d, served_by, rep), Ok (d', rep') ->
    check_str "det served by scalar" "scalar" served_by;
    check_bool "det = direct" true (F.equal d d');
    check_int "det attempts = direct" rep'.O.attempts rep.O.attempts
  | Error e, _ | _, Error e -> Alcotest.fail (O.error_to_string e));
  check_int "no session built" misses0 (counter "session.cache.miss")

let test_ladder_deadline_expired () =
  let st = st0 21 in
  let a, _, b = random_system st 5 in
  let session = En.Sess.create (st0 22) in
  let eng = En.create ~session (st0 23) in
  let past = Int64.sub (Kp_obs.Clock.now_ns ()) 1_000_000L in
  match En.solve ~deadline_ns:past ~engine:P.E_auto eng a b with
  | Error (O.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "expired deadline produced an answer"
  | Error e -> Alcotest.fail (O.error_to_string e)

(* ---- the daemon ---- *)

let with_server ?(cfg_fn = fun c -> c) ?pool ?now ~seed k =
  let path = sock_path () in
  let cfg = cfg_fn (Srv.default_config ~socket_path:path) in
  let srv = Srv.start ?pool ?now cfg (st0 seed) in
  Fun.protect
    ~finally:(fun () ->
      Srv.drain srv;
      Srv.stop srv)
    (fun () -> k path srv)

(* a raw connection for the writes {!Cl.request_line} refuses — several
   lines in one write, blank lines — with its own channels *)
let with_raw path k =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  k (Unix.in_channel_of_descr fd) (fun s ->
      output_string oc s;
      flush oc)

let field s j name =
  match Option.bind (Wire.member name j) s with
  | Some v -> v
  | None -> Alcotest.fail ("reply missing " ^ name)

let str_field = field Wire.to_str
let int_field = field Wire.to_int

let int_list j name =
  match Option.bind (Wire.member name j) Wire.to_list with
  | Some l -> List.map (fun v -> Option.get (Wire.to_int v)) l
  | None -> Alcotest.fail ("reply missing " ^ name)

(* ---- fuzz: random bytes and mutated golden requests ---- *)

let golden_lines =
  [
    {|{"id":"r1","op":"ping"}|};
    {|{"id":"r2","op":"solve","n":2,"a":[1,2,3,4],"b":[5,6],"key":"m1","engine":"block","block_factor":2,"deadline_ms":250}|};
    {|{"id":"r3","op":"solve","key":"m1","b":[1,2]}|};
    {|{"id":"r4","op":"batch","key":"m1","bs":[[1,0],[0,1]]}|};
    {|{"id":"r5","op":"det","n":2,"a":[1,2,3,4],"engine":"dense"}|};
    {|{"id":"r6","op":"rank","key":"m1"}|};
    {|{"id":"r7","op":"inverse","key":"m1","engine":"scalar"}|};
    {|{"id":"r8","op":"metrics"}|};
  ]

(* JSON punctuation, literals, numbers at the edges of int, and the
   protocol's own names, spliced in anywhere *)
let fragments =
  [ "{"; "}"; "["; "]"; "\""; ":"; ","; "-"; "0"; "-1"; "1e3"; "2.5";
    "4611686018427387904"; "99999999999999999999"; "null"; "true";
    "\\u00e9"; "\\"; "\"op\""; "\"n\""; "\"a\""; "\"b\""; "\"bs\"";
    "\"key\""; "\"solve\""; "\"inverse\""; "\"engine\":\"dense\"";
    "\"deadline_ms\":0"; "\"block_factor\":-3"; "[[[[[[[[[[[[" ]

(* a golden request after one to four edits: a byte replaced, a fragment
   inserted, a run deleted, or the tail cut *)
let mutated =
  let open QCheck.Gen in
  let edit s =
    let len = String.length s in
    int_bound len >>= fun i ->
    let before = String.sub s 0 i and after = String.sub s i (len - i) in
    oneof
      [
        map (fun c -> before ^ String.make 1 c ^ after) char;
        map
          (fun c ->
            if after = "" then before
            else before ^ String.make 1 c ^ String.sub after 1 (String.length after - 1))
          char;
        map (fun f -> before ^ f ^ after) (oneofl fragments);
        map
          (fun k ->
            let k = min k (String.length after) in
            before ^ String.sub after k (String.length after - k))
          (int_bound 8);
        return before;
      ]
  in
  let rec edits s k = if k = 0 then return s else edit s >>= fun s -> edits s (k - 1) in
  oneofl golden_lines >>= fun g -> int_range 1 4 >>= edits g

let reject_codes =
  [ "malformed_json"; "not_an_object"; "unknown_op"; "missing_field";
    "bad_field"; "bad_dimensions"; "oversized"; "too_large" ]

(* the parsers are total, and every line ends in a typed verdict: a
   request that renders and parses back to itself, or a [bad_request]
   with a documented code whose reply is well-formed JSON echoing the
   salvaged id *)
let typed_verdict line =
  (match Wire.parse line with
  | Ok v when Result.is_error (Wire.parse (Wire.render v)) ->
    QCheck.Test.fail_reportf "a parsed value renders to unparsable %S"
      (Wire.render v)
  | Ok _ | Error _ -> ());
  match P.parse_request ~max_n:64 line with
  | Ok req -> (
    match P.parse_request ~max_n:64 (P.render_request req) with
    | Ok req' -> req = req' || QCheck.Test.fail_report "render/parse changed it"
    | Error r -> QCheck.Test.fail_reportf "rendered request rejected: %s" r.P.detail)
  | Error r -> (
    if not (List.mem r.P.code reject_codes) then
      QCheck.Test.fail_reportf "undocumented code %s" r.P.code;
    match Wire.parse (P.bad_request ~id:(P.salvage_id line) r) with
    | Ok j ->
      P.response_status j = Some "bad_request"
      && Option.bind (Wire.member "code" j) Wire.to_str = Some r.P.code
      && P.response_id j = P.salvage_id line
    | Error m -> QCheck.Test.fail_reportf "bad_request reply unparsable: %s" m)

let prop_random_bytes =
  QCheck.Test.make ~name:"random bytes: a typed verdict" ~count:2000
    QCheck.(string_gen_of_size Gen.(0 -- 120) Gen.char)
    typed_verdict

let prop_mutated_golden =
  QCheck.Test.make ~name:"mutated golden requests: a typed verdict"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") mutated)
    typed_verdict

(* the daemon answers every mutated line with one well-formed reply (ok,
   a typed error, or bad_request) and keeps serving *)
let test_fuzz_server () =
  with_server ~seed:91 @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  ignore
    (Cl.request_line c
       {|{"id":"k","op":"solve","n":2,"a":[2,1,1,3],"b":[1,2],"key":"m1"}|});
  let rand = Random.State.make [| 4242 |] in
  for _ = 1 to 200 do
    let line =
      String.map
        (function '\n' | '\r' -> ' ' | c -> c)
        (QCheck.Gen.generate1 ~rand mutated)
    in
    (* the daemon skips an empty line without a reply *)
    if line <> "" then
      match Wire.parse (Cl.request_line c line) with
      | Ok j ->
        check_bool
          (Printf.sprintf "status of the reply to %S" line)
          true
          (List.mem (P.response_status j)
             [ Some "ok"; Some "error"; Some "bad_request" ])
      | Error m -> Alcotest.failf "reply to %S is not JSON: %s" line m
  done;
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"p","op":"ping"}|})) in
  check_str "still serving" "ok" (str_field j "status")

let test_server_golden () =
  with_server ~seed:31 @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  (* ping *)
  let r = Cl.request_line c {|{"id":"p","op":"ping"}|} in
  check_bool "pong" true
    (match Wire.parse r with
    | Ok j -> P.response_status j = Some "ok"
    | Error _ -> false);
  (* solve, registering the matrix under a key *)
  let st = st0 32 in
  let a, _, b = random_system st 4 in
  let entries =
    Array.to_list (Array.init 16 (fun k -> Wire.Int (M.get a (k / 4) (k mod 4))))
  in
  let solve_req rhs =
    Wire.render
      (Wire.Obj
         [
           ("id", Wire.Str "s");
           ("op", Wire.Str "solve");
           ("n", Wire.Int 4);
           ("a", Wire.Arr entries);
           ("key", Wire.Str "m1");
           ("b", Wire.Arr (Array.to_list (Array.map (fun x -> Wire.Int x) rhs)));
         ])
  in
  let j = Result.get_ok (Wire.parse (Cl.request_line c (solve_req b))) in
  check_str "solve ok" "ok" (str_field j "status");
  let x = Array.of_list (int_list j "x") in
  check_bool "solution verifies" true (Array.for_all2 F.equal (M.matvec a x) b);
  (* by key *)
  let j =
    Cl.request c
      {
        P.id = Some "k";
        op = P.Solve { m = P.Keyed "m1"; b };
        engine = P.E_auto;
        block_factor = None;
        deadline_ms = None;
      }
  in
  check_str "keyed solve ok" "ok" (str_field j "status");
  (* det / rank on the registered matrix *)
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"d","op":"det","key":"m1"}|})) in
  check_str "det ok" "ok" (str_field j "status");
  let module G = Kp_matrix.Gauss.Make (F) in
  check_bool "det value" true (F.equal (int_field j "det") (G.det a));
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"r","op":"rank","key":"m1"}|})) in
  check_int "rank value" 4 (int_field j "rank");
  (* batch *)
  let j =
    Result.get_ok
      (Wire.parse
         (Cl.request_line c
            {|{"id":"b","op":"batch","key":"m1","bs":[[1,0,0,0],[0,1,0,0]]}|}))
  in
  check_str "batch ok" "ok" (str_field j "status");
  (* an inline singular solve: the reply carries the kernel vector, and
     A·w = 0 checks from the reply alone *)
  let s = M.random_of_rank st 4 ~rank:2 in
  let req =
    {
      P.id = Some "z";
      op =
        P.Solve
          { m = P.Inline { n = 4; entries = s.M.data; key = None };
            b = Array.init 4 (fun _ -> F.random st) };
      engine = P.E_auto;
      block_factor = None;
      deadline_ms = None;
    }
  in
  let j = Cl.request c req in
  check_str "singular is an error reply" "error" (str_field j "status");
  (match Wire.member "error" j with
  | Some err ->
    check_str "singular tag" "singular" (str_field err "error");
    check_bool "no witness count" true (Wire.member "witnesses" err = None);
    let w = Array.of_list (int_list err "kernel") in
    check_bool "w <> 0" true (Array.exists (fun x -> not (F.is_zero x)) w);
    check_bool "A.w = 0" true (Array.for_all F.is_zero (M.matvec s w))
  | None -> Alcotest.fail "no error payload");
  (* typed rejections *)
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"u","op":"det","key":"ghost"}|})) in
  check_str "unknown key" "bad_request" (str_field j "status");
  check_str "unknown key code" "unknown_key" (str_field j "code");
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"w","op":"solve","key":"m1","b":[1,2]}|})) in
  check_str "rhs dims" "bad_request" (str_field j "status");
  check_str "rhs dims code" "bad_dimensions" (str_field j "code");
  let j = Result.get_ok (Wire.parse (Cl.request_line c "{oops")) in
  check_str "malformed" "bad_request" (str_field j "status");
  (* the daemon survived all of the above: metrics still answer *)
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"m","op":"metrics"}|})) in
  check_str "metrics ok" "ok" (str_field j "status");
  match Wire.member "gauges" j with
  | Some g ->
    check_bool "queue gauge exported" true
      (Wire.member "serve.queue.depth" g <> None);
    check_bool "breaker gauge exported" true
      (Wire.member "serve.breaker.block.state" g <> None)
  | None -> Alcotest.fail "no gauges"

(* the dense reference over the wire: an inverse above the circuit's
   bound is answered by n Theorem-4 solves with no circuit traced, and a
   dense request above the wire's bound is a typed too_large, inline or
   by key, while the daemon keeps serving *)
let test_server_dense_bounds () =
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  with_server ~seed:75 @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let inline ?key (a : M.t) =
    P.Inline { n = a.M.rows; entries = Array.copy a.M.data; key }
  in
  let req engine op =
    Cl.request c
      { P.id = Some "d"; op; engine; block_factor = None; deadline_ms = None }
  in
  let n = En.circuit_max_n + 1 in
  let a = M.random_nonsingular (st0 76) n in
  let before = counter "inverse.attempts" in
  let j = req P.E_dense (P.Inverse (inline a)) in
  check_str "dense inverse ok" "ok" (str_field j "status");
  check_str "served by dense" "dense" (str_field j "engine");
  let inv = M.init n n (fun i k -> List.nth (int_list j "a") ((i * n) + k)) in
  check_bool "A * A^-1 = I" true (M.equal (M.mul a inv) (M.identity n));
  check_int "no circuit traced" before (counter "inverse.attempts");
  let big = M.random_nonsingular (st0 77) (P.dense_max_n + 1) in
  let j = req P.E_dense (P.Det (inline big)) in
  check_str "inline dense above bound" "bad_request" (str_field j "status");
  check_str "inline code" "too_large" (str_field j "code");
  let j = req P.E_auto (P.Det (inline ~key:"big" big)) in
  check_str "auto det registers the key" "ok" (str_field j "status");
  let j = req P.E_dense (P.Inverse (P.Keyed "big")) in
  check_str "keyed dense above bound" "bad_request" (str_field j "status");
  check_str "keyed code" "too_large" (str_field j "code");
  let j = req P.E_auto (P.Rank (P.Keyed "big")) in
  check_str "the key still serves other engines" "ok" (str_field j "status")

let test_server_sheds_when_full () =
  with_server ~cfg_fn:(fun c -> { c with Srv.queue_limit = 0 }) ~seed:41
  @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let j =
    Result.get_ok
      (Wire.parse
         (Cl.request_line c {|{"id":"x","op":"det","n":2,"a":[1,2,3,4]}|}))
  in
  check_str "typed overload" "error" (str_field j "status");
  let err =
    match Wire.member "error" j with
    | Some e -> e
    | None -> Alcotest.fail "no error payload"
  in
  check_str "overloaded tag" "overloaded" (str_field err "error");
  check_bool "retry hint positive" true (int_field err "retry_after_ms" >= 1);
  (* ping and metrics bypass the queue: the daemon is still observable *)
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"op":"ping"}|})) in
  check_str "ping bypasses admission" "ok" (str_field j "status")

let test_server_oversized_line () =
  with_server ~cfg_fn:(fun c -> { c with Srv.max_line_bytes = 1024 }) ~seed:51
  @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  (* bigger than the server's 64 KiB read chunk, so the buffer exceeds
     the limit before the terminating newline can arrive *)
  let blob = String.make 100_000 'a' in
  let j = Result.get_ok (Wire.parse (Cl.request_line c blob)) in
  check_str "oversized rejected" "bad_request" (str_field j "status");
  check_str "oversized code" "oversized" (str_field j "code");
  (* the connection is closed after the reply *)
  match Cl.request_line c {|{"op":"ping"}|} with
  | exception End_of_file -> ()
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "connection survived an oversized request"

(* the golden round-trip again, now with the daemon on a 2-domain pool
   (kp serve --domains 2): same wire conversation, same answers, and the
   pool.regions counter proves the dense rung's products fanned out (the
   block and scalar rungs iterate one black box, which the pool does not
   reach) *)
let test_server_pooled_golden () =
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let regions0 = counter "pool.regions" in
  Kp_util.Pool.with_pool ~domains:2 @@ fun pool ->
  with_server ~pool ~seed:91 @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let st = st0 92 in
  let a, _, b = random_system st 5 in
  let solve_req id engine =
    {
      P.id = Some id;
      op =
        P.Solve
          {
            m =
              P.Inline
                {
                  n = 5;
                  entries = Array.init 25 (fun k -> M.get a (k / 5) (k mod 5));
                  key = Some "shm";
                };
            b;
          };
      engine;
      block_factor = (if engine = P.E_block then Some 2 else None);
      deadline_ms = None;
    }
  in
  let j = Cl.request c (solve_req "s1" P.E_block) in
  check_str "pooled block solve ok" "ok" (str_field j "status");
  check_str "served by the block engine" "block" (str_field j "engine");
  let x = Array.of_list (int_list j "x") in
  check_bool "pooled block answer verifies" true
    (Array.for_all2 F.equal (M.matvec a x) b);
  (* the dense rung rides pooled products *)
  let j = Cl.request c (solve_req "s0" P.E_dense) in
  check_str "pooled dense solve ok" "ok" (str_field j "status");
  let x = Array.of_list (int_list j "x") in
  check_bool "pooled dense answer verifies" true
    (Array.for_all2 F.equal (M.matvec a x) b);
  check_bool "pooled products actually ran" true
    (counter "pool.regions" > regions0);
  (* the scalar session rung shares the same pool *)
  let j = Cl.request c (solve_req "s2" P.E_scalar) in
  check_str "pooled scalar solve ok" "ok" (str_field j "status");
  let x = Array.of_list (int_list j "x") in
  check_bool "pooled scalar answer verifies" true
    (Array.for_all2 F.equal (M.matvec a x) b);
  (* det through the registered key agrees with the oracle *)
  let j =
    Result.get_ok
      (Wire.parse (Cl.request_line c {|{"id":"d","op":"det","key":"shm"}|}))
  in
  check_str "pooled det ok" "ok" (str_field j "status");
  let module G = Kp_matrix.Gauss.Make (F) in
  check_bool "pooled det value" true (F.equal (int_field j "det") (G.det a))

let test_server_chaos_demote_and_repromote () =
  (* the daemon over a fault-injecting field: one request demotes
     block → scalar (typed, correct, no crash), the breaker opens, and
     after the injected cooldown the next request re-promotes *)
  let plan = Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:10 ~seed:6 () in
  let module FF = (val FaultF.wrap plan) in
  let module CF = Kp_poly.Conv.Karatsuba (FF) in
  let module FSrv = Kp_serve.Server.Make (FF) (CF) in
  let st = st0 61 in
  let a, _, b = random_system st 6 in
  let now = ref 0L in
  let path = sock_path () in
  let cfg =
    {
      (FSrv.default_config ~socket_path:path) with
      FSrv.breaker_threshold = 1;
      breaker_cooldown_ms = 1;
      (* pinned for the same reason as the ladder test above *)
      precond = Kp_precond.Precond.Forced Kp_precond.Precond.Dense_hd;
    }
  in
  let srv = FSrv.start ~now:(fun () -> !now) cfg (st0 62) in
  Fun.protect
    ~finally:(fun () ->
      FSrv.drain srv;
      FSrv.stop srv)
  @@ fun () ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let solve_req id =
    {
      P.id = Some id;
      op =
        P.Solve
          {
            m =
              P.Inline
                {
                  n = 6;
                  entries =
                    Array.init 36 (fun k -> M.get a (k / 6) (k mod 6));
                  key = Some "m";
                };
            b;
          };
      engine = P.E_block;
      block_factor = Some 2;
      deadline_ms = None;
    }
  in
  let served j =
    check_str "ok under chaos" "ok" (str_field j "status");
    let x = Array.of_list (int_list j "x") in
    check_bool "answer correct under clean arithmetic" true
      (Array.for_all2 F.equal (M.matvec a x) b);
    str_field j "engine"
  in
  check_str "request 1 demotes" "scalar" (served (Cl.request c (solve_req "c1")));
  check_bool "block breaker open" true
    (List.assoc "block" (FSrv.E.breaker_states (FSrv.engines srv)) = Br.Open);
  check_str "request 2 skips open breaker" "scalar"
    (served (Cl.request c (solve_req "c2")));
  now := 10_000_000L;
  check_str "request 3 re-promotes" "block"
    (served (Cl.request c (solve_req "c3")))

(* the daemon skips a blank line without a reply, so the client refuses
   to send one (its read would block forever), and a line holding a
   newline (two replies); a raw blank-line write draws nothing *)
let test_server_blank_lines () =
  with_server ~seed:73 @@ fun path _srv ->
  let c = Cl.connect path in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  List.iter
    (fun line ->
      match Cl.request_line c line with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "request_line sent %S" line)
    [ ""; "\r"; {|{"op":"ping"}|} ^ "\n" ^ {|{"op":"ping"}|}; "\n" ];
  let j = Result.get_ok (Wire.parse (Cl.request_line c {|{"id":"p","op":"ping"}|})) in
  check_str "the refusals sent nothing" "p" (str_field j "id");
  with_raw path @@ fun ic write ->
  write ("\n\r\n" ^ {|{"id":"q","op":"ping"}|} ^ "\n");
  let j = Result.get_ok (Wire.parse (input_line ic)) in
  check_str "blank lines draw no reply: the first is the pong" "q"
    (str_field j "id");
  check_bool "pong" true (Wire.member "pong" j = Some (Wire.Bool true));
  write ({|{"id":"r","op":"ping"}|} ^ "\n");
  check_str "and nothing queued behind it" "r"
    (str_field (Result.get_ok (Wire.parse (input_line ic))) "id")

(* stop unregisters the gauges start registered: a stopped server
   leaves no serve.* gauge for a later snapshot to list *)
let test_server_stop_drops_gauges () =
  let serve_gauges () =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"serve." name)
      (Kp_obs.Counter.gauges_snapshot ())
  in
  with_server ~seed:77 (fun _path _srv ->
      check_bool "a running server lists serve.draining" true
        (List.mem_assoc "serve.draining" (serve_gauges ())));
  check_bool "no serve.* gauge after stop" true (serve_gauges () = [])

let test_server_drain_no_request_dropped () =
  with_server ~cfg_fn:(fun c -> { c with Srv.drain_grace_ms = 10_000 }) ~seed:71
  @@ fun path srv ->
  let st = st0 72 in
  let a, _, b = random_system st 8 in
  with_raw path @@ fun ic write ->
  (* pipeline several requests in one write, then SIGTERM mid-flight *)
  let entries = Array.init 64 (fun k -> M.get a (k / 8) (k mod 8)) in
  let req id m =
    P.render_request
      {
        P.id = Some id;
        op = P.Solve { m; b };
        engine = P.E_auto;
        block_factor = None;
        deadline_ms = None;
      }
  in
  let lines =
    req "q0" (P.Inline { n = 8; entries; key = Some "dm" })
    :: List.init 4 (fun i -> req (Printf.sprintf "q%d" (i + 1)) (P.Keyed "dm"))
  in
  write (String.concat "\n" lines ^ "\n");
  let reply () = Result.get_ok (Wire.parse (input_line ic)) in
  let j0 = reply () in
  Srv.install_sigterm srv;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* every queued request is still answered, in order *)
  let replies = j0 :: List.init 4 (fun _ -> reply ()) in
  let rec await_drain n =
    if Srv.draining srv then ()
    else if n = 0 then Alcotest.fail "SIGTERM did not initiate drain"
    else (
      Unix.sleepf 0.01;
      await_drain (n - 1))
  in
  await_drain 200;
  List.iteri
    (fun i j ->
      check_str (Printf.sprintf "reply %d ok" i) "ok" (str_field j "status");
      check_str
        (Printf.sprintf "reply %d id" i)
        (Printf.sprintf "q%d" i)
        (str_field j "id"))
    replies;
  Srv.wait srv;
  (* the listener is gone: a fresh connect is refused *)
  match Cl.connect path with
  | exception Unix.Unix_error _ -> ()
  | c2 ->
    Cl.close c2;
    Alcotest.fail "listener still accepting after drain"

let () =
  Alcotest.run "kp_serve"
    [
      ( "wire",
        [
          Alcotest.test_case "render/parse roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_wire_rejects;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "golden requests parse" `Quick test_protocol_parse_ok;
          Alcotest.test_case "typed rejections" `Quick test_protocol_rejects;
          Alcotest.test_case "render/parse roundtrip" `Quick
            test_protocol_render_roundtrip;
          Alcotest.test_case "response envelopes" `Quick test_protocol_responses;
        ] );
      ( "fuzz",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false ~speed_level:`Quick
             ~rand:(Random.State.make [| 2718 |]))
          [ prop_random_bytes; prop_mutated_golden ]
        @ [ Alcotest.test_case "daemon: mutated lines, typed replies" `Quick
              test_fuzz_server ] );
      ( "breaker",
        [ Alcotest.test_case "open/half-open/close lifecycle" `Quick
            test_breaker_lifecycle ] );
      ( "ladder",
        [
          Alcotest.test_case "chaos: block demotes then re-promotes" `Quick
            test_ladder_block_demotes_then_repromotes;
          Alcotest.test_case "routing and singular verdicts" `Quick
            test_ladder_routes_and_singular;
          Alcotest.test_case "block rank is elimination" `Quick
            test_ladder_rank_block_is_elimination;
          Alcotest.test_case "expired deadline is typed" `Quick
            test_ladder_deadline_expired;
          Alcotest.test_case "block rung serves a batch" `Quick
            test_ladder_block_batch;
          Alcotest.test_case "dense is the Theorem-4 reference" `Quick
            test_ladder_dense_reference;
          Alcotest.test_case "dense inverse: circuit at small n only" `Quick
            test_ladder_dense_inverse_route;
          Alcotest.test_case "GF(2) inverse reaches A * A^-1 = I" `Quick
            test_ladder_gf2_inverse;
          Alcotest.test_case "scalar rung without a session runs fresh" `Quick
            test_ladder_scalar_without_session;
        ] );
      ( "server",
        [
          Alcotest.test_case "golden round-trips" `Quick test_server_golden;
          Alcotest.test_case "golden round-trips, pooled engines" `Quick
            test_server_pooled_golden;
          Alcotest.test_case "dense requests bounded" `Quick
            test_server_dense_bounds;
          Alcotest.test_case "sheds with typed overloaded" `Quick
            test_server_sheds_when_full;
          Alcotest.test_case "oversized line closed" `Quick
            test_server_oversized_line;
          Alcotest.test_case "chaos: demotion and re-promotion" `Quick
            test_server_chaos_demote_and_repromote;
          Alcotest.test_case "blank lines get no reply" `Quick
            test_server_blank_lines;
          Alcotest.test_case "SIGTERM drain drops nothing" `Quick
            test_server_drain_no_request_dropped;
          Alcotest.test_case "stop drops its gauges" `Quick
            test_server_stop_drops_gauges;
        ] );
    ]
