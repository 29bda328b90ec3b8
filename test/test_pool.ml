(* Pool regression tests: region semantics, nesting and exception
   propagation. *)

open Kp_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* spin-then-park wake path: many tiny regions dispatched back-to-back hit
   the workers' bounded spin window (a parked worker takes the
   mutex/condvar path instead) — whichever path each wake takes, every
   task runs exactly once and results are deterministic.  Regression for
   the wake-latency optimisation: the pending counter must stay balanced
   across regions or a later region would hang or double-run. *)
let test_spin_wake_many_small_regions () =
  Pool.with_pool ~domains:4 (fun pool ->
      let rounds = 200 and n = 8 in
      let total = ref 0 in
      for r = 1 to rounds do
        let out = Pool.parallel_init pool n (fun i -> (r * n) + i) in
        Array.iteri
          (fun i v ->
            if v <> (r * n) + i then
              Alcotest.failf "round %d slot %d: got %d" r i v)
          out;
        total := !total + Array.length out
      done;
      check_int "every region completed in order" (rounds * n) !total)

(* spin path under contention: interleave instant and slow tasks so some
   wakes land inside the spin budget and some after parking *)
let test_spin_wake_mixed_latency () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 64 in
      let out =
        Pool.parallel_init pool n (fun i ->
            if i mod 7 = 0 then begin
              (* force some wakes to arrive while workers are parked *)
              Thread.yield ();
              Unix.sleepf 0.0005
            end;
            i * i)
      in
      Array.iteri (fun i v -> check_int (Printf.sprintf "slot %d" i) (i * i) v) out)

(* region_run: exception propagation *)

let test_region_run_basic () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 17 in
      let hits = Array.make n 0 in
      Pool.region_run pool
        (List.init n (fun i -> fun () -> hits.(i) <- hits.(i) + 1));
      Array.iteri (fun i h -> check_int (Printf.sprintf "thunk %d" i) 1 h) hits)

let test_region_run_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      let completed = Atomic.make 0 in
      let raised =
        try
          Pool.region_run pool
            (List.init 16 (fun i ->
                 fun () ->
                   if i = 7 then failwith "region boom"
                   else ignore (Atomic.fetch_and_add completed 1)));
          false
        with Failure m -> m = "region boom"
      in
      check_bool "exception re-raised in caller" true raised;
      (* every non-raising thunk still ran: the region completed *)
      check_int "other thunks completed" 15 (Atomic.get completed);
      (* pool still usable after the failed region *)
      let ok = ref false in
      Pool.region_run pool [ (fun () -> ok := true) ];
      check_bool "pool alive after exception" true !ok)

let test_region_run_caller_exception () =
  (* the first thunk runs in the caller; its exception must also wait for
     the enqueued rest of the region before propagating *)
  Pool.with_pool ~domains:2 (fun pool ->
      let rest_ran = Atomic.make 0 in
      let raised =
        try
          Pool.region_run pool
            ((fun () -> failwith "caller boom")
            :: List.init 8 (fun _ ->
                   fun () -> ignore (Atomic.fetch_and_add rest_ran 1)));
          false
        with Failure m -> m = "caller boom"
      in
      check_bool "caller exception re-raised" true raised;
      check_int "queued thunks still completed" 8 (Atomic.get rest_ran))

(* nested parallel_for from within a task *)

let test_nested_parallel_for () =
  Pool.with_pool ~domains:4 (fun pool ->
      let outer = 8 and inner = 100 in
      let hits = Array.init outer (fun _ -> Array.make inner 0) in
      Pool.parallel_for pool ~lo:0 ~hi:outer (fun i ->
          Pool.parallel_for pool ~lo:0 ~hi:inner (fun j ->
              hits.(i).(j) <- hits.(i).(j) + 1));
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j h -> check_int (Printf.sprintf "hits.(%d).(%d)" i j) 1 h)
            row)
        hits)

(* 1-domain pool: everything runs in the caller, regions still complete *)

let test_one_domain_pool () =
  Pool.with_pool ~domains:1 (fun pool ->
      check_int "size 1" 1 (Pool.size pool);
      let acc = ref 0 in
      Pool.region_run pool
        (List.init 5 (fun i -> fun () -> acc := !acc + i));
      check_int "region completes" 10 !acc;
      let nested = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:4 (fun _ ->
          Pool.parallel_for pool ~lo:0 ~hi:4 (fun _ -> incr nested));
      check_int "nested on 1 domain" 16 !nested)

(* fewer tasks than domains: the chunk-size arithmetic could divide to
   zero here without its max-1 guards — the PR-8 audit found every entry
   point guarded; these rows pin that so a refactor cannot lose them *)

let test_fewer_tasks_than_domains () =
  Pool.with_pool ~domains:4 (fun pool ->
      (* parallel_init with n < domains (and the n = 0 edge) *)
      let a = Pool.parallel_init pool 2 (fun i -> i * i) in
      check_bool "parallel_init n < domains" true (a = [| 0; 1 |]);
      let empty = Pool.parallel_init pool 0 (fun _ -> assert false) in
      check_int "parallel_init n = 0" 0 (Array.length empty);
      let one = Pool.parallel_init pool 1 (fun i -> i + 41) in
      check_bool "parallel_init n = 1" true (one = [| 41 |]);
      (* parallel_for on a range smaller than the pool *)
      let hits = Array.make 3 0 in
      Pool.parallel_for pool ~lo:0 ~hi:3 (fun i -> hits.(i) <- hits.(i) + 1);
      check_bool "parallel_for hi - lo < domains" true (hits = [| 1; 1; 1 |]);
      let ran = ref false in
      Pool.parallel_for pool ~lo:0 ~hi:0 (fun _ -> ran := true);
      check_bool "parallel_for empty range" false !ran;
      (* parallel_for_chunked with an explicit chunk larger than the range *)
      let hits2 = Array.make 2 0 in
      Pool.parallel_for_chunked pool ~chunk:64 ~lo:0 ~hi:2 (fun lo hi ->
          for i = lo to hi - 1 do
            hits2.(i) <- hits2.(i) + 1
          done);
      check_bool "parallel_for_chunked chunk > range" true (hits2 = [| 1; 1 |]);
      (* region_run with fewer thunks than domains *)
      let acc = Atomic.make 0 in
      Pool.region_run pool
        (List.init 2 (fun _ -> fun () -> ignore (Atomic.fetch_and_add acc 1)));
      check_int "region_run 2 thunks on 4 domains" 2 (Atomic.get acc);
      Pool.region_run pool [];
      check_int "region_run no thunks" 2 (Atomic.get acc))

let () =
  Alcotest.run "kp_pool"
    [
      ( "region_run",
        [
          Alcotest.test_case "runs all thunks" `Quick test_region_run_basic;
          Alcotest.test_case "spin-then-park: many small regions" `Quick
            test_spin_wake_many_small_regions;
          Alcotest.test_case "spin-then-park: mixed latency" `Quick
            test_spin_wake_mixed_latency;
          Alcotest.test_case "worker exception" `Quick test_region_run_exception;
          Alcotest.test_case "caller exception" `Quick test_region_run_caller_exception;
        ] );
      ( "nesting",
        [ Alcotest.test_case "nested parallel_for" `Quick test_nested_parallel_for ] );
      ( "degenerate",
        [
          Alcotest.test_case "one-domain pool" `Quick test_one_domain_pool;
          Alcotest.test_case "fewer tasks than domains" `Quick
            test_fewer_tasks_than_domains;
        ] );
    ]
