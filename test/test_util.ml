(* Tests for kp_util: pool semantics, table rendering, rng helpers. *)

open Kp_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_parallel_for_sum () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      check_int "every index touched once" n (Array.fold_left ( + ) 0 hits);
      Array.iteri (fun i h -> check_int (Printf.sprintf "hits.(%d)" i) 1 h) hits)

let test_parallel_for_empty () =
  Pool.with_pool ~domains:2 (fun pool ->
      let touched = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> touched := true);
      Pool.parallel_for pool ~lo:7 ~hi:3 (fun _ -> touched := true);
      check_bool "empty ranges do nothing" false !touched)

let test_parallel_for_sequential_pool () =
  Pool.with_pool ~domains:1 (fun pool ->
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> acc := !acc + i);
      check_int "domains:1 runs in caller" 4950 !acc)

let test_parallel_init () =
  Pool.with_pool ~domains:3 (fun pool ->
      let a = Pool.parallel_init pool 257 (fun i -> i * i) in
      check_int "length" 257 (Array.length a);
      Array.iteri (fun i v -> check_int "value" (i * i) v) a;
      check_int "empty" 0 (Array.length (Pool.parallel_init pool 0 (fun i -> i))))

let test_exceptions_propagate () =
  Pool.with_pool ~domains:4 (fun pool ->
      let raised =
        try
          Pool.parallel_for pool ~lo:0 ~hi:1000 (fun i ->
              if i = 500 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      check_bool "exception reraised in caller" true raised;
      (* pool still usable after a failed region *)
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:10 (fun _ ->
          ignore (Atomic.fetch_and_add (Atomic.make 0) 1));
      Pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> if i = 0 then acc := 1);
      check_int "pool alive after exception" 1 !acc)

let test_chunked_covers () =
  Pool.with_pool ~domains:2 (fun pool ->
      let n = 1003 in
      let seen = Array.make n false in
      Pool.parallel_for_chunked pool ~lo:0 ~hi:n ~chunk:64 (fun cl ch ->
          for i = cl to ch - 1 do
            seen.(i) <- true
          done);
      check_bool "all covered" true (Array.for_all Fun.id seen))

let test_pool_size () =
  Pool.with_pool ~domains:3 (fun pool -> check_int "size" 3 (Pool.size pool));
  Pool.with_pool ~domains:0 (fun pool -> check_int "clamped to 1" 1 (Pool.size pool))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_tables () =
  let t = Tables.create ~title:"demo" ~columns:[ "n"; "value" ] in
  Tables.add_row t [ "1"; "10" ];
  Tables.add_row t [ "22"; "3" ];
  let s = Tables.render t in
  check_bool "title present" true (String.length s > 0 && String.sub s 0 4 = "demo");
  check_bool "header present" true (contains s "value")

let test_tables_arity () =
  let t = Tables.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity enforced" (Invalid_argument "Tables.add_row: wrong arity")
    (fun () -> Tables.add_row t [ "1" ])

let test_fmt () =
  Alcotest.(check string) "int separators" "1,234,567" (Tables.fmt_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Tables.fmt_int (-1000));
  Alcotest.(check string) "small int" "7" (Tables.fmt_int 7);
  Alcotest.(check string) "zero float" "0" (Tables.fmt_float 0.)

let test_rng_determinism () =
  let a = Rng.int_array (Rng.make 42) ~bound:1000 32 in
  let b = Rng.int_array (Rng.make 42) ~bound:1000 32 in
  check_bool "same seed, same stream" true (a = b);
  let c = Rng.int_array (Rng.make 43) ~bound:1000 32 in
  check_bool "different seed differs" true (a <> c);
  Array.iter (fun x -> check_bool "in range" true (x >= 0 && x < 1000)) a

let test_rng_split () =
  let st = Rng.make 7 in
  let s1 = Rng.split st in
  let s2 = Rng.split st in
  let a = Rng.int_array s1 ~bound:1_000_000 16 in
  let b = Rng.int_array s2 ~bound:1_000_000 16 in
  check_bool "split streams independent" true (a <> b)

let test_rng_split_siblings_decorrelated () =
  (* regression: split used to reseed from two 30-bit draws, which left
     sibling streams visibly correlated.  With the stdlib LXM split the
     first draws of ~200 siblings behave like independent uniforms. *)
  let st = Rng.make 2024 in
  let k = 200 in
  let bound = 1_000_000_000 in
  let firsts =
    Array.init k (fun _ -> Random.State.int (Rng.split st) bound)
  in
  (* all-pairs distinctness of the first draw: collision probability over
     a 10^9 range for 200 draws is ~2·10^-5, so any collision indicates
     structural correlation *)
  let sorted = Array.copy firsts in
  Array.sort compare sorted;
  let distinct = ref true in
  for i = 0 to k - 2 do
    if sorted.(i) = sorted.(i + 1) then distinct := false
  done;
  check_bool "sibling first draws all distinct" true !distinct;
  (* crude serial-correlation check on the sibling sequence: the lag-1
     sample correlation of independent uniforms stays near 0 *)
  let xs = Array.map float_of_int firsts in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int k in
  let num = ref 0. and den = ref 0. in
  for i = 0 to k - 2 do
    num := !num +. ((xs.(i) -. mean) *. (xs.(i + 1) -. mean))
  done;
  Array.iter (fun x -> den := !den +. ((x -. mean) ** 2.)) xs;
  let corr = !num /. !den in
  check_bool
    (Printf.sprintf "lag-1 correlation %.3f small" corr)
    true
    (Float.abs corr < 0.25);
  (* and each sibling still yields a deterministic stream from the parent
     seed: re-splitting from the same parent reproduces the draws *)
  let st' = Rng.make 2024 in
  let firsts' =
    Array.init k (fun _ -> Random.State.int (Rng.split st') bound)
  in
  check_bool "split is deterministic in the parent seed" true (firsts = firsts')

let () =
  Alcotest.run "kp_util"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_sum;
          Alcotest.test_case "empty ranges" `Quick test_parallel_for_empty;
          Alcotest.test_case "sequential pool" `Quick test_parallel_for_sequential_pool;
          Alcotest.test_case "parallel_init" `Quick test_parallel_init;
          Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
          Alcotest.test_case "chunked covers" `Quick test_chunked_covers;
          Alcotest.test_case "size clamping" `Quick test_pool_size;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_tables;
          Alcotest.test_case "arity" `Quick test_tables_arity;
          Alcotest.test_case "formatting" `Quick test_fmt;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "split siblings decorrelated" `Quick
            test_rng_split_siblings_decorrelated;
        ] );
    ]
