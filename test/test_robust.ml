(* Chaos suite for lib/robust: the randomized core instantiated over a
   fault-injecting field (or black box) must be *sound* — under any seeded
   schedule of transient corruptions/aborts it either returns an answer
   that re-verifies under CLEAN arithmetic or a typed error, never an
   uncertified wrong value.  A control case runs the same fault plans
   through the uncertified straight-line pipeline and shows wrong answers
   do appear there — i.e. the certificates are load-bearing, and skipping
   them is caught.

   Everything is deterministic: plans are seeded, solver states are seeded,
   so a green run is a stable fact, not luck of the draw. *)

module F = Kp_field.Fields.Gf_ntt
module CK = Kp_poly.Conv.Karatsuba (F)
module M = Kp_matrix.Dense.Make (F)
module G = Kp_matrix.Gauss.Make (F)
module Bb = Kp_matrix.Blackbox.Make (F)
module W = Kp_core.Wiedemann.Make (F)
module S = Kp_core.Solver.Make (F) (CK)
module O = Kp_robust.Outcome
module Rt = Kp_robust.Retry
module Fault = Kp_robust.Fault
module FaultF = Kp_robust.Fault.Field (F)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let st0 k = Kp_util.Rng.make (31000 + k)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* clean-field ground truth: A non-singular with a planted solution *)
let random_system st n =
  let a = M.random_nonsingular st n in
  let x_true = Array.init n (fun _ -> F.random st) in
  let b = M.matvec a x_true in
  (a, x_true, b)

(* ---- chaos: certified solve over a faulty field ---- *)

(* a forced sparse preconditioner under a total-abort schedule: the early
   attempts burn the fault budget, the demotion contract falls back to the
   dense kind for the late attempts, and the served answer is still the
   verified one — degradation is observable (precond.demote) and never
   wrong *)
let test_chaos_precond_demotes () =
  let module Pc = Kp_precond.Precond in
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let demote0 = counter "precond.demote" in
  let dense0 = counter "precond.build.dense" in
  let wrong = ref 0 and ok = ref 0 in
  for seed = 201 to 210 do
    let plan = Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:8 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 (900 + seed) in
    let n = 6 in
    let a, _, b = random_system st n in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    match
      FS.solve ~retries:12 ~precond:(Pc.Forced Pc.Sparse_butterfly) st fa b
    with
    | Ok (x, _) ->
      incr ok;
      if not (Array.for_all2 F.equal (M.matvec a x) b) then incr wrong
    | Error _ -> () (* a typed failure is allowed; a wrong answer is not *)
  done;
  check_int "zero wrong answers across demotion" 0 !wrong;
  check_bool
    (Printf.sprintf "runs recover once the fault budget drains (%d/10)" !ok)
    true (!ok >= 8);
  check_bool "sparse demoted to dense on the late attempts" true
    (counter "precond.demote" > demote0);
  check_bool "the demoted attempts really built dense preconditioners" true
    (counter "precond.build.dense" > dense0)

let test_chaos_solve () =
  let wrong = ref 0 and accepted = ref 0 and injected = ref 0 in
  for seed = 1 to 40 do
    let plan =
      Fault.plan ~p_corrupt:0.002
        ~p_abort:(if seed mod 5 = 0 then 0.0005 else 0.)
        ~max_faults:3 ~seed ()
    in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 seed in
    let n = 3 + (seed mod 6) in
    let a, _, b = random_system st n in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    (match FS.solve ~retries:10 st fa b with
    | Ok (x, _) ->
      incr accepted;
      (* soundness: re-verify with CLEAN arithmetic *)
      if not (Array.for_all2 F.equal (M.matvec a x) b) then incr wrong
    | Error _ -> () (* typed failure: allowed *));
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong solutions" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  (* transient faults cost attempts, not correctness: most runs recover *)
  check_bool
    (Printf.sprintf "most runs recover (%d/40)" !accepted)
    true (!accepted >= 30)

let test_chaos_det () =
  let wrong = ref 0 and ok = ref 0 and injected = ref 0 in
  for seed = 101 to 140 do
    let plan = Fault.plan ~p_corrupt:0.002 ~max_faults:3 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 seed in
    let n = 3 + (seed mod 5) in
    let a = M.random st n n in
    let d_true = G.det a in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    (match FS.det ~retries:10 st fa with
    | Ok (d, _) ->
      incr ok;
      if not (F.equal d d_true) then incr wrong
    | Error _ -> ());
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong determinants" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  check_bool (Printf.sprintf "most dets recover (%d/40)" !ok) true (!ok >= 30)

let test_chaos_inverse () =
  let wrong = ref 0 and ok = ref 0 in
  (* 20 via the n-solves route, 10 via the Baur–Strassen circuit *)
  for seed = 201 to 230 do
    let plan = Fault.plan ~p_corrupt:0.002 ~max_faults:2 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FI = Kp_core.Inverse.Make (FF) (CF) in
    let st = st0 seed in
    let n = 3 + (seed mod 3) in
    let a = M.random_nonsingular st n in
    let fa = FI.M.init n n (fun i j -> M.get a i j) in
    let result =
      if seed <= 220 then FI.inverse_via_solves ~retries:8 st fa
      else FI.inverse ~retries:8 st fa
    in
    match result with
    | Ok (inv, _) ->
      incr ok;
      let minv = M.init n n (fun i j -> FI.M.get inv i j) in
      if not (M.equal (M.mul a minv) (M.identity n)) then incr wrong
    | Error _ -> ()
  done;
  check_int "zero uncertified wrong inverses" 0 !wrong;
  check_bool (Printf.sprintf "most inverses recover (%d/30)" !ok) true (!ok >= 24)

let test_chaos_wiedemann_blackbox () =
  (* clean field, faulty OPERATOR: the black-box apply is wrapped so whole
     result vectors get corrupted or the apply aborts mid-flight.  Costed
     as dense (2n² per apply) the solve keeps its Krylov basis, so a
     corrupted apply lands in the vectors Cayley–Hamilton reads; of unknown
     cost it keeps none and Cayley–Hamilton applies the box again *)
  List.iter
    (fun dense ->
      let label what =
        Printf.sprintf "%s (%s)" what (if dense then "kept basis" else "no basis")
      in
      let wrong = ref 0 and ok = ref 0 and injected = ref 0 in
      for seed = 301 to 320 do
        let plan =
          Fault.plan ~p_corrupt:0.15
            ~p_abort:(if seed mod 4 = 0 then 0.05 else 0.)
            ~max_faults:2 ~seed ()
        in
        let st = st0 seed in
        let n = 5 + (seed mod 6) in
        let a, _, b = random_system st n in
        let base = Bb.of_dense a in
        let corrupt v =
          if Array.length v > 0 then v.(0) <- F.add v.(0) F.one;
          v
        in
        let bb = Bb.of_fun n (Fault.wrap_apply plan ~corrupt (Bb.apply base)) in
        let bb = if dense then { bb with Bb.ops_per_apply = 2 * n * n } else bb in
        (match W.solve ~retries:10 st bb b with
        | Ok (x, _) ->
          incr ok;
          if not (Array.for_all2 F.equal (M.matvec a x) b) then incr wrong
        | Error _ -> ());
        injected := !injected + Fault.injected plan
      done;
      check_int (label "zero uncertified wrong blackbox solutions") 0 !wrong;
      check_bool (label "faults were actually injected") true (!injected > 0);
      check_bool
        (label (Printf.sprintf "most recover (%d/20)" !ok))
        true (!ok >= 15))
    [ false; true ]

(* ---- control: skipping the certificates IS caught ---- *)

let test_control_uncertified_pipeline () =
  (* the same class of fault plans, pushed through the raw straight-line
     pipeline with NO verification: wrong answers must appear (and the
     certified path on the SAME schedule returns none) — proof that the
     chaos suite would catch a certificate-skipping regression *)
  let wrong_uncertified = ref 0 and wrong_certified = ref 0 in
  for seed = 401 to 420 do
    let plan = Fault.plan ~p_corrupt:0.005 ~max_faults:4 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 (700 + seed) in
    let n = 6 in
    let a, _, b = random_system st n in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    let card_s = 65536 in
    let h = Array.init ((2 * n) - 1) (fun _ -> F.sample st ~card_s) in
    let d =
      Array.init n (fun _ ->
          let x = F.sample st ~card_s in
          if F.is_zero x then F.one else x)
    in
    let u = Array.init n (fun _ -> F.sample st ~card_s) in
    (match
       let p = FS.P.precond_of ~charpoly:FS.P.charpoly_leverrier ~n ~h ~d in
       FS.P.solve ~generator:(FS.P.Toeplitz FS.P.charpoly_leverrier)
         ~strategy:FS.P.Doubling fa ~b ~p ~u
     with
    | exception _ -> () (* uncertified pipeline may just die; not wrong *)
    | { FS.P.x; _ } ->
      if not (Array.for_all2 F.equal (M.matvec a x) b) then
        incr wrong_uncertified);
    (* certified run over the SAME schedule, rewound *)
    Fault.reset plan;
    match FS.solve ~retries:10 st fa b with
    | Ok (x, _) ->
      if not (Array.for_all2 F.equal (M.matvec a x) b) then
        incr wrong_certified
    | Error _ -> ()
  done;
  check_bool
    (Printf.sprintf "uncertified pipeline returned wrong answers (%d/20)"
       !wrong_uncertified)
    true
    (!wrong_uncertified >= 1);
  check_int "certified path: zero wrong on the same schedules" 0
    !wrong_certified

(* ---- the generator stage under a corrupted sequence ---- *)

(* A Krylov sequence {u·Ãⁱ·v} of an n×n matrix has linear complexity at
   most n.  A transient fault that clears the first n terms of the buffer
   leaves a sequence whose first non-zero term sits at index n, so its
   linear complexity is at least n + 1.  The classifier must reject that
   as a typed fault, never a singular verdict.  A singular verdict needs a
   kernel vector that checks against A, so a fault schedule cannot turn
   a non-singular matrix into "singular". *)
let test_overlong_sequence_is_a_fault () =
  let module SP = Kp_precond.Precond.Make (F) (CK) in
  let st = st0 800 in
  let n = 6 in
  let a = M.random_nonsingular st n in
  let p = SP.build ~card_s:65536 ~n Kp_precond.Precond.Dense_hd st in
  check_bool "P is non-singular" true (not (F.is_zero (p.Kp_precond.Precond.det ())));
  let a_tilde = S.P.preconditioned a p in
  let u = Array.init n (fun _ -> F.random st) in
  let v = Array.init n (fun _ -> F.random st) in
  let cols, seq =
    S.P.krylov ~strategy:S.P.Sequential ~mul:S.M.mul a_tilde ~u ~v n
  in
  let corrupted = Array.mapi (fun i s -> if i < n then F.zero else s) seq in
  check_bool "the fault left a non-zero term at index n" true
    (not (F.is_zero corrupted.(n)));
  (match S.massey_generator ~n corrupted with
  | exception S.Linear_complexity_exceeds l ->
    check_bool (Printf.sprintf "linear complexity %d > n" l) true (l > n)
  | _ -> Alcotest.fail "expected Linear_complexity_exceeds");
  let stage seq () = (cols, seq) in
  let generate = S.massey_generator ~n in
  let apply = M.matvec a in
  (match S.classify ~apply ~p ~n ~generate (stage corrupted) with
  | Error (Rt.Reject (O.Fault _)) -> ()
  | Error (Rt.Error_now (O.Singular _)) ->
    Alcotest.fail "a corrupted sequence was read as a singular verdict"
  | _ -> Alcotest.fail "expected a typed fault rejection");
  (* the same stage repeated through the retry engine: exhaustion with a
     fault history, never a Singular verdict *)
  let retry stage =
    Rt.run ~ns:"testns" ~op:"overlong" ~policy:(Rt.policy ~retries:5 ())
      ~card_s:64
      (fun ~attempt:_ ~card_s:_ ->
        match S.classify ~apply ~p ~n ~generate stage with
        | Error reject -> reject
        | Ok _ -> Rt.Accept ())
  in
  (match retry (stage corrupted) with
  | Error (O.Retries_exhausted rep) ->
    check_int "every attempt ran" 5 rep.O.attempts;
    check_bool "every rejection is a fault" true
      (List.for_all
         (fun r -> match r.O.reason with O.Fault _ -> true | _ -> false)
         rep.O.rejections)
  | Error (O.Singular _) -> Alcotest.fail "faults were promoted to Singular"
  | Ok _ | Error _ -> Alcotest.fail "expected Retries_exhausted");
  (* a short sequence whose minimal generator is λ (linear complexity
     < n with λ | f, as a singular Ã gives) yields w = P·v, which A does
     not annihilate: a plain Zero_constant_term retry, never Singular *)
  let short = Array.mapi (fun i _ -> if i = 0 then F.one else F.zero) seq in
  (match retry (stage short) with
  | Error (O.Retries_exhausted rep) ->
    check_bool "every rejection is a failed kernel check" true
      (List.for_all (fun r -> r.O.reason = O.Zero_constant_term)
         rep.O.rejections)
  | Error (O.Singular _) ->
    Alcotest.fail "a λ | f without a kernel vector read as singular"
  | _ -> Alcotest.fail "expected Retries_exhausted");
  (* control: the same λ | f on a singular A whose kernel holds P·v is a
     proof on the first attempt, carrying that vector *)
  let w = p.Kp_precond.Precond.apply v in
  let sing_apply x =
    (* A' = A − (A·w)·eᵀ/w_k for a k with w_k ≠ 0: A'·w = 0 *)
    let k = ref 0 in
    while F.is_zero w.(!k) do incr k done;
    let aw = M.matvec a w and s = F.div x.(!k) w.(!k) in
    Array.mapi (fun i y -> F.sub y (F.mul aw.(i) s)) (M.matvec a x)
  in
  (match
     Rt.run ~ns:"testns" ~op:"kernel" ~policy:(Rt.policy ~retries:5 ())
       ~card_s:64
       (fun ~attempt:_ ~card_s:_ ->
         match S.classify ~apply:sing_apply ~p ~n ~generate (stage short) with
         | Error reject -> reject
         | Ok _ -> Rt.Accept ())
   with
  | Error (O.Singular { kernel; report }) ->
    check_int "proved on the first attempt" 1 report.O.attempts;
    check_bool "the kernel vector is P·v" true (Array.for_all2 F.equal kernel w)
  | _ -> Alcotest.fail "expected Singular from a checked kernel vector");
  (* a short sequence whose minimal generator is λ − 1 proves nothing: a
     plain low-degree retry *)
  let constant = Array.map (fun _ -> F.one) seq in
  match retry (stage constant) with
  | Error (O.Retries_exhausted rep) ->
    check_bool "every rejection is a plain low degree" true
      (List.for_all (fun r -> r.O.reason = O.Low_degree) rep.O.rejections)
  | Error (O.Singular _) ->
    Alcotest.fail "a short sequence without λ | f read as singular"
  | _ -> Alcotest.fail "expected Retries_exhausted"

(* ---- retry engine unit tests ---- *)

let test_retry_escalation_doubles_and_clamps () =
  let seen = ref [] in
  let r =
    Rt.run ~ns:"testns" ~op:"esc"
      ~policy:(Rt.policy ~retries:5 ~max_card_s:(Some 40) ())
      ~card_s:8
      (fun ~attempt:_ ~card_s ->
        seen := card_s :: !seen;
        Rt.Reject O.Low_degree)
  in
  (match r with
  | Error (O.Retries_exhausted rep) ->
    check_int "attempts" 5 rep.O.attempts;
    check_int "final card_s clamped" 40 rep.O.card_s_final;
    check_int "all attempts recorded" 5 (List.length rep.O.rejections)
  | Ok _ | Error _ -> Alcotest.fail "expected Retries_exhausted");
  check_bool "card_s trace 8,16,32,40,40" true
    (List.rev !seen = [ 8; 16; 32; 40; 40 ])

let test_retry_deadline_in_past () =
  let past = Int64.sub (Kp_obs.Clock.now_ns ()) 1_000_000L in
  match
    Rt.run ~ns:"testns" ~op:"deadline"
      ~policy:(Rt.policy ~retries:5 ~deadline_ns:past ())
      ~card_s:16
      (fun ~attempt:_ ~card_s:_ -> Rt.Accept ())
  with
  | Error (O.Deadline_exceeded { elapsed_ns; report }) ->
    check_bool "elapsed >= 0" true (Int64.compare elapsed_ns 0L >= 0);
    check_int "no attempt ran" 0 report.O.attempts
  | Ok _ | Error _ -> Alcotest.fail "expected Deadline_exceeded"

let test_retry_singular_is_terminal () =
  (* a Singular proof ends the run on its attempt and is counted under
     <ns>.singular; rejections alone only ever exhaust *)
  let counter name = Option.value ~default:0 (Kp_obs.Counter.find name) in
  let singular0 = counter "testns.singular" in
  (match
     Rt.run ~ns:"testns" ~op:"singular" ~policy:(Rt.policy ~retries:4 ())
       ~card_s:16
       (fun ~attempt ~card_s:_ ->
         if attempt < 2 then Rt.Reject O.Zero_constant_term
         else
           Rt.Error_now
             (O.Singular { kernel = [| 1 |]; report = O.empty_report }))
   with
  | Error (O.Singular { kernel; report }) ->
    check_bool "kernel carried" true (kernel = [| 1 |]);
    check_int "attempts" 2 report.O.attempts;
    check_int "the earlier rejection is reported" 1
      (List.length report.O.rejections)
  | Ok _ | Error _ -> Alcotest.fail "expected Singular");
  check_int "counted singular" (singular0 + 1) (counter "testns.singular");
  match
    Rt.run ~ns:"testns" ~op:"singular" ~policy:(Rt.policy ~retries:4 ())
      ~card_s:16
      (fun ~attempt:_ ~card_s:_ -> Rt.Reject O.Zero_constant_term)
  with
  | Error (O.Retries_exhausted report) -> check_int "attempts" 4 report.O.attempts
  | Ok _ | Error _ -> Alcotest.fail "expected Retries_exhausted"

let test_retry_singular_is_not_a_failure () =
  (* a Singular verdict is an answer: its attempt event and the
     <ns>.singular counter record it, and no robust.failure event does;
     an exhausted budget still emits one *)
  let failures op =
    List.length
      (List.filter
         (fun { Kp_obs.Events.name; attrs; _ } ->
           name = "robust.failure" && List.assoc_opt "op" attrs = Some op)
         (Kp_obs.Events.snapshot ()))
  in
  let outcomes op =
    List.filter_map
      (fun { Kp_obs.Events.name; attrs; _ } ->
        if name = "testns.attempt" && List.assoc_opt "op" attrs = Some op then
          List.assoc_opt "outcome" attrs
        else None)
      (Kp_obs.Events.snapshot ())
  in
  let singular_run () =
    Rt.run ~ns:"testns" ~op:"verdict" ~policy:(Rt.policy ~retries:4 ())
      ~card_s:16
      (fun ~attempt:_ ~card_s:_ ->
        Rt.Error_now (O.Singular { kernel = [| 1 |]; report = O.empty_report }))
  in
  (match singular_run () with
  | Error (O.Singular _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Singular");
  check_int "no robust.failure for Singular" 0 (failures "testns.verdict");
  check_bool "the attempt event records it" true
    (outcomes "verdict" = [ "singular" ]);
  (match
     Rt.run ~ns:"testns" ~op:"exhaust" ~policy:(Rt.policy ~retries:2 ())
       ~card_s:16
       (fun ~attempt:_ ~card_s:_ -> Rt.Reject O.Low_degree)
   with
  | Error (O.Retries_exhausted _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Retries_exhausted");
  check_int "Retries_exhausted emits robust.failure" 1
    (failures "testns.exhaust")

let test_retry_converts_exceptions () =
  (* an Injected fault and a Division_by_zero each cost one attempt *)
  match
    Rt.run ~ns:"testns" ~op:"exn" ~policy:(Rt.policy ~retries:4 ()) ~card_s:4
      (fun ~attempt ~card_s:_ ->
        if attempt = 1 then raise (Fault.Injected "boom")
        else if attempt = 2 then raise Division_by_zero
        else Rt.Accept 42)
  with
  | Ok (v, rep) ->
    check_int "value" 42 v;
    check_int "attempts" 3 rep.O.attempts;
    (match rep.O.rejections with
    | [ r1; r2 ] ->
      check_bool "fault reason" true (r1.O.reason = O.Fault "boom");
      check_bool "division reason" true (r2.O.reason = O.Division_error)
    | _ -> Alcotest.fail "expected two rejections")
  | Error _ -> Alcotest.fail "expected recovery on attempt 3"

let test_retry_error_now_short_circuits () =
  let calls = ref 0 in
  match
    Rt.run ~ns:"testns" ~op:"now" ~policy:(Rt.policy ~retries:5 ()) ~card_s:4
      (fun ~attempt:_ ~card_s:_ ->
        incr calls;
        Rt.Error_now (O.Fault_detected { op = "t"; detail = "d" }))
  with
  | Error (O.Fault_detected { op = "t"; detail = "d" }) ->
    check_int "no retry after Error_now" 1 !calls
  | Ok _ | Error _ -> Alcotest.fail "expected Fault_detected"

let test_solver_deadline_integration () =
  let st = st0 999 in
  let a, _, b = random_system st 6 in
  match
    S.solve ~deadline_ns:(Int64.sub (Kp_obs.Clock.now_ns ()) 1L) st a b
  with
  | Error (O.Deadline_exceeded _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Deadline_exceeded from solver"

(* ---- chaos: the block-Wiedemann engine ---- *)

(* the same soundness contract as the scalar suites, now through the
   blocked pipeline at b ∈ {2, 4}: under seeded field faults every
   outcome is either clean-verified or typed — never a silent wrong
   answer escaping the block projections *)

let test_chaos_block_solve () =
  let wrong = ref 0 and accepted = ref 0 and injected = ref 0 in
  for seed = 401 to 440 do
    let plan =
      Fault.plan ~p_corrupt:0.002
        ~p_abort:(if seed mod 5 = 0 then 0.0005 else 0.)
        ~max_faults:3 ~seed ()
    in
    let module FF = (val FaultF.wrap plan) in
    let module FM = Kp_matrix.Dense.Make (FF) in
    let module FB = Kp_core.Block_wiedemann.Make (FF) in
    let st = st0 seed in
    let n = 4 + (seed mod 5) in
    let b_factor = if seed mod 2 = 0 then 2 else 4 in
    let a, _, b = random_system st n in
    let fa = FB.Bb.of_dense (FM.init n n (fun i j -> M.get a i j)) in
    (match FB.solve ~retries:10 ~block_factor:b_factor st fa b with
    | Ok (x, _) ->
      incr accepted;
      if not (Array.for_all2 F.equal (M.matvec a x) b) then incr wrong
    | Error _ -> ());
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong block solutions" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  check_bool
    (Printf.sprintf "most block solves recover (%d/40)" !accepted)
    true (!accepted >= 30)

let test_chaos_block_det () =
  let wrong = ref 0 and ok = ref 0 and injected = ref 0 in
  for seed = 501 to 540 do
    let plan = Fault.plan ~p_corrupt:0.002 ~max_faults:3 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module FM = Kp_matrix.Dense.Make (FF) in
    let module FB = Kp_core.Block_wiedemann.Make (FF) in
    let st = st0 seed in
    let n = 4 + (seed mod 4) in
    let b_factor = if seed mod 2 = 0 then 2 else 4 in
    let a = M.random st n n in
    let d_true = G.det a in
    let fa = FB.Bb.of_dense (FM.init n n (fun i j -> M.get a i j)) in
    (match FB.det ~retries:10 ~block_factor:b_factor st fa with
    | Ok (d, _) ->
      incr ok;
      if not (F.equal d d_true) then incr wrong
    | Error _ -> ());
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong block determinants" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  check_bool (Printf.sprintf "most block dets recover (%d/40)" !ok) true
    (!ok >= 30)

let test_chaos_block_deadline () =
  (* a fault-riddled block solve against an already-spent deadline is a
     typed Deadline_exceeded, not a hang and not an answer *)
  let plan = Fault.plan ~p_corrupt:0.01 ~max_faults:5 ~seed:77 () in
  let module FF = (val FaultF.wrap plan) in
  let module FM = Kp_matrix.Dense.Make (FF) in
  let module FB = Kp_core.Block_wiedemann.Make (FF) in
  let st = st0 601 in
  let a, _, b = random_system st 6 in
  let fa = FB.Bb.of_dense (FM.init 6 6 (fun i j -> M.get a i j)) in
  let past = Int64.sub (Kp_obs.Clock.now_ns ()) 1L in
  match FB.solve ~deadline_ns:past ~block_factor:2 st fa b with
  | Error (O.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "expired deadline produced a block answer"
  | Error e -> Alcotest.fail ("wrong error: " ^ O.error_to_string e)

let test_block_falls_back_to_scalar () =
  (* a block failure is typed, so a ladder can fall through it: exhaust
     the block engine under a hostile plan, then show a scalar engine
     answers the same system cleanly (test_serve's ladder suite walks
     the full block → scalar → elimination ladder that kp and kp serve
     share) *)
  let plan = Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:10 ~seed:9 () in
  let module FF = (val FaultF.wrap plan) in
  let module FM = Kp_matrix.Dense.Make (FF) in
  let module FB = Kp_core.Block_wiedemann.Make (FF) in
  let st = st0 801 in
  let a, _, b = random_system st 6 in
  let fa = FB.Bb.of_dense (FM.init 6 6 (fun i j -> M.get a i j)) in
  (match FB.solve ~retries:5 ~block_factor:2 st fa b with
  | Error (O.Retries_exhausted _ | O.Fault_detected _) -> ()
  | Ok _ -> Alcotest.fail "block engine succeeded under a total-abort plan"
  | Error e -> Alcotest.fail ("untyped block failure: " ^ O.error_to_string e));
  check_bool "plan budget consumed" true (Fault.injected plan > 0);
  match S.solve st a b with
  | Ok (x, _) ->
    check_bool "scalar fallback verifies" true
      (Array.for_all2 F.equal (M.matvec a x) b)
  | Error e -> Alcotest.fail ("scalar fallback failed: " ^ O.error_to_string e)

(* ---- chaos: the pool fan-out ---- *)

(* corrupted products on pool domains must never escape as certified
   answers: the fault field injects inside the row-block product
   (wrapping forces the generic kernel, so every element goes through the
   plan), the solver fans each product over a 2-domain pool
   (Dense.mul_parallel), so injected faults cross Pool.region_run, and
   every accepted answer still re-verifies under clean arithmetic. *)
let test_chaos_pooled_solve () =
  let wrong = ref 0 and accepted = ref 0 and injected = ref 0 in
  Kp_util.Pool.with_pool ~domains:2 @@ fun pool ->
  for seed = 901 to 940 do
    let plan =
      Fault.plan ~p_corrupt:0.002
        ~p_abort:(if seed mod 5 = 0 then 0.0005 else 0.)
        ~max_faults:3 ~seed ()
    in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 seed in
    let n = 4 + (seed mod 5) in
    let a, _, b = random_system st n in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    (match FS.solve ~retries:10 ~pool st fa b with
    | Ok (x, _) ->
      incr accepted;
      if not (Array.for_all2 F.equal (M.matvec a x) b) then incr wrong
    | Error _ -> ());
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong pooled solutions" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  check_bool
    (Printf.sprintf "most pooled solves recover (%d/40)" !accepted)
    true (!accepted >= 30)

let test_chaos_pooled_det () =
  let wrong = ref 0 and ok = ref 0 and injected = ref 0 in
  Kp_util.Pool.with_pool ~domains:2 @@ fun pool ->
  for seed = 1001 to 1040 do
    let plan = Fault.plan ~p_corrupt:0.002 ~max_faults:3 ~seed () in
    let module FF = (val FaultF.wrap plan) in
    let module CF = Kp_poly.Conv.Karatsuba (FF) in
    let module FS = Kp_core.Solver.Make (FF) (CF) in
    let st = st0 seed in
    let n = 4 + (seed mod 4) in
    let a = M.random st n n in
    let d_true = G.det a in
    let fa = FS.M.init n n (fun i j -> M.get a i j) in
    (match FS.det ~retries:10 ~pool st fa with
    | Ok (d, _) ->
      incr ok;
      if not (F.equal d d_true) then incr wrong
    | Error _ -> ());
    injected := !injected + Fault.injected plan
  done;
  check_int "zero uncertified wrong pooled determinants" 0 !wrong;
  check_bool "faults were actually injected" true (!injected > 0);
  check_bool (Printf.sprintf "most pooled dets recover (%d/40)" !ok) true
    (!ok >= 30)

let test_chaos_pooled_deadline () =
  (* an expired deadline reaching a fault-riddled, pool-fanned solve is a
     typed Deadline_exceeded — the fan-out neither hangs nor leaks an
     answer *)
  let plan = Fault.plan ~p_corrupt:0.01 ~max_faults:5 ~seed:55 () in
  let module FF = (val FaultF.wrap plan) in
  let module CF = Kp_poly.Conv.Karatsuba (FF) in
  let module FS = Kp_core.Solver.Make (FF) (CF) in
  let st = st0 1101 in
  let a, _, b = random_system st 6 in
  let fa = FS.M.init 6 6 (fun i j -> M.get a i j) in
  Kp_util.Pool.with_pool ~domains:2 (fun pool ->
      let past = Int64.sub (Kp_obs.Clock.now_ns ()) 1L in
      match FS.solve ~deadline_ns:past ~pool st fa b with
      | Error (O.Deadline_exceeded _) -> ()
      | Ok _ -> Alcotest.fail "expired deadline produced a pooled answer"
      | Error e -> Alcotest.fail ("wrong error: " ^ O.error_to_string e))

let test_pooled_abort_is_typed () =
  (* a total-abort plan inside pooled products surfaces as a typed
     outcome (the exception crosses the pool region and the retry
     engine), and the sequential clean engine still answers the same
     system *)
  let plan = Fault.plan ~p_corrupt:0. ~p_abort:1.0 ~max_faults:10 ~seed:13 () in
  let module FF = (val FaultF.wrap plan) in
  let module CF = Kp_poly.Conv.Karatsuba (FF) in
  let module FS = Kp_core.Solver.Make (FF) (CF) in
  let st = st0 1201 in
  let a, _, b = random_system st 6 in
  let fa = FS.M.init 6 6 (fun i j -> M.get a i j) in
  Kp_util.Pool.with_pool ~domains:2 (fun pool ->
      match FS.solve ~retries:5 ~pool st fa b with
      | Error (O.Retries_exhausted _ | O.Fault_detected _) -> ()
      | Ok _ -> Alcotest.fail "pooled solve succeeded under a total-abort plan"
      | Error e ->
        Alcotest.fail ("untyped pooled failure: " ^ O.error_to_string e));
  check_bool "plan budget consumed" true (Fault.injected plan > 0);
  match S.solve st a b with
  | Ok (x, _) ->
    check_bool "clean engine still answers" true
      (Array.for_all2 F.equal (M.matvec a x) b)
  | Error e -> Alcotest.fail ("clean solve failed: " ^ O.error_to_string e)

(* ---- outcome taxonomy smoke ---- *)

let test_outcome_rendering () =
  let rep =
    {
      O.attempts = 3;
      card_s_final = 128;
      rejections = [ { O.attempt = 1; card_s = 64; reason = O.Low_degree } ];
    }
  in
  let e = O.Retries_exhausted rep in
  check_bool "to_string mentions attempts" true
    (contains (O.error_to_string e) "3");
  check_bool "json tagged" true
    (contains (O.error_to_json ~kernel:(fun _ -> "[]") e) "retries_exhausted");
  check_int "attempts_of_error" 3 (O.attempts_of_error e);
  let m = O.merge_reports rep rep in
  check_int "merged attempts add" 6 m.O.attempts;
  check_int "merged rejections concat" 2 (List.length m.O.rejections);
  let e' = O.with_report (fun r -> { r with O.attempts = 9 }) e in
  check_int "with_report maps" 9 (O.attempts_of_error e');
  let f = O.Fault_detected { op = "x"; detail = "y" } in
  check_bool "fault json tagged" true
    (contains (O.error_to_json ~kernel:(fun _ -> "[]") f) "fault_detected");
  check_bool "singular string" true
    (contains
       (O.error_to_string (O.Singular { kernel = [| 3 |]; report = rep }))
       "singular");
  check_bool "singular json carries the kernel" true
    (contains
       (O.error_to_json ~kernel:(fun w -> Printf.sprintf "[%d]" w.(0))
          (O.Singular { kernel = [| 3 |]; report = rep }))
       "\"kernel\":[3]")

let () =
  Alcotest.run "kp_robust"
    [
      ( "chaos",
        [
          Alcotest.test_case "solve sound under field faults" `Quick
            test_chaos_solve;
          Alcotest.test_case "det sound under field faults" `Quick
            test_chaos_det;
          Alcotest.test_case "inverse sound under field faults" `Quick
            test_chaos_inverse;
          Alcotest.test_case "wiedemann sound under blackbox faults" `Quick
            test_chaos_wiedemann_blackbox;
          Alcotest.test_case "forced sparse demotes to dense, never wrong"
            `Quick test_chaos_precond_demotes;
          Alcotest.test_case "control: uncertified pipeline caught" `Quick
            test_control_uncertified_pipeline;
          Alcotest.test_case "overlong sequence is a fault, not a witness"
            `Quick test_overlong_sequence_is_a_fault;
        ] );
      ( "chaos-block",
        [
          Alcotest.test_case "block solve sound under field faults" `Quick
            test_chaos_block_solve;
          Alcotest.test_case "block det sound under field faults" `Quick
            test_chaos_block_det;
          Alcotest.test_case "block deadline is typed under faults" `Quick
            test_chaos_block_deadline;
          Alcotest.test_case "block exhaustion falls back to scalar" `Quick
            test_block_falls_back_to_scalar;
        ] );
      ( "chaos-pool",
        [
          Alcotest.test_case "pooled solve sound under field faults" `Quick
            test_chaos_pooled_solve;
          Alcotest.test_case "pooled det sound under field faults" `Quick
            test_chaos_pooled_det;
          Alcotest.test_case "pooled deadline is typed under faults" `Quick
            test_chaos_pooled_deadline;
          Alcotest.test_case "pooled total-abort is typed" `Quick
            test_pooled_abort_is_typed;
        ] );
      ( "retry-engine",
        [
          Alcotest.test_case "escalation doubles and clamps" `Quick
            test_retry_escalation_doubles_and_clamps;
          Alcotest.test_case "deadline in the past" `Quick
            test_retry_deadline_in_past;
          Alcotest.test_case "Singular ends the run" `Quick
            test_retry_singular_is_terminal;
          Alcotest.test_case "Singular is not a robust.failure" `Quick
            test_retry_singular_is_not_a_failure;
          Alcotest.test_case "exceptions become rejections" `Quick
            test_retry_converts_exceptions;
          Alcotest.test_case "Error_now short-circuits" `Quick
            test_retry_error_now_short_circuits;
          Alcotest.test_case "solver honours deadline" `Quick
            test_solver_deadline_integration;
        ] );
      ( "outcome",
        [ Alcotest.test_case "taxonomy rendering" `Quick test_outcome_rendering ] );
    ]
