(* Command-line driver for the Kaltofen–Pan solver over GF(p).

   Matrices are given as whitespace-separated integers: first n, then the
   n² entries row-major, then optionally the n entries of the right-hand
   side (solve draws b at random without them), or generated randomly
   with --random.

     kp solve  --random 24
     kp solve  --random 200 --stats=json   (observability report on stderr-free stdout)
     kp solve  --random 200 --engine auto --deadline-ms 500
                                (black box, elimination fallback, bounded wall time)
     kp det    --matrix m.txt
     kp rank   --random 16 --rank-hint 9
     kp inverse --random 6
     kp charpoly --toeplitz 1,2,3,4,5    (diagonal vector, length 2n-1) *)

(* The integers of a file, in order, one chunk of its bytes at a time.
   Tokens are separated by ' ', '\t', '\n' and '\r', so a CRLF file reads
   like its LF twin.  A plain decimal token short enough not to overflow is
   parsed inline; any other (a sign, 0x…, a long run of digits) goes
   through [int_of_string].  A token cut at a chunk's end is carried over
   to the front of the buffer and read again with the next chunk (a token
   longer than the buffer doubles it).  [iter_ints ~what path ~size push]
   calls [size] once with the most tokens the file's byte length can hold
   ([None] when it has no length, as for a pipe), then [push i v] on the
   i-th integer v (1-based).  Errors name [what] and fail with [Failure].
   The read is the [cli.read] span, so [--stats] attributes it. *)
let iter_ints ~what path ~size push =
  Kp_obs.Span.with_ "cli.read" @@ fun () ->
  let fail fmt = Printf.ksprintf (fun m -> failwith (what ^ ": " ^ m)) fmt in
  let is_sep = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
  try
    In_channel.with_open_bin path @@ fun ic ->
    (* t tokens take at least 2t − 1 bytes *)
    size
      (match Unix.fstat (Unix.descr_of_in_channel ic) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some ((st_size + 1) / 2)
      | _ -> None);
    (* the unread bytes are [lo, hi), and a ' ' after them ends every
       token's scan without a bounds test *)
    let buf = ref (Bytes.make 65537 ' ') and lo = ref 0 and hi = ref 0 in
    let eof = ref false and count = ref 0 in
    (* keep [lo, hi), the start of a cut token, and read after it *)
    let refill () =
      let keep = !hi - !lo in
      let dst =
        if keep = Bytes.length !buf - 1 then Bytes.create ((2 * keep) + 1)
        else !buf
      in
      Bytes.blit !buf !lo dst 0 keep;
      buf := dst;
      lo := 0;
      (hi :=
         match In_channel.input ic dst keep (Bytes.length dst - 1 - keep) with
         | 0 ->
           eof := true;
           keep
         | r -> keep + r);
      Bytes.set dst !hi ' '
    in
    let finished = ref false in
    while not !finished do
      let b = !buf and stop = !hi in
      let i = ref !lo in
      while !i < stop && is_sep (Bytes.unsafe_get b !i) do incr i done;
      if !i < stop then begin
        let start = !i and acc = ref 0 in
        (* d ∈ [0, 9] exactly when d lor (9 − d) ≥ 0 *)
        let d = ref (Char.code (Bytes.unsafe_get b start) - 48) in
        while !d lor (9 - !d) >= 0 do
          acc := (!acc * 10) + !d;
          incr i;
          d := Char.code (Bytes.unsafe_get b !i) - 48
        done;
        let plain = is_sep (Bytes.unsafe_get b !i) in
        while not (is_sep (Bytes.unsafe_get b !i)) do incr i done;
        if !i = stop && not !eof then begin
          lo := start;
          refill ()
        end
        else begin
          incr count;
          (if plain && !i - start <= 18 then push !count !acc
           else
             let tok = Bytes.sub_string b start (!i - start) in
             match int_of_string_opt tok with
             | Some v -> push !count v
             | None -> fail "token %d (%S) is not an integer" !count tok);
          lo := !i
        end
      end
      else begin
        lo := !i;
        if !eof then finished := true else refill ()
      end
    done
  with Sys_error e -> fail "%s" e

(* every integer of a file, in an array of its own *)
let read_ints ~what path =
  let out = ref (Array.make 1024 0) and count = ref 0 in
  iter_ints ~what path ~size:ignore (fun i v ->
      if i > Array.length !out then begin
        let bigger = Array.make (2 * !count) 0 in
        Array.blit !out 0 bigger 0 !count;
        out := bigger
      end;
      !out.(i - 1) <- v;
      count := i);
  Array.sub !out 0 !count

type serve_opts = {
  socket : string;
  queue_limit : int;
  max_n : int;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  drain_grace_ms : int;
  default_deadline_ms : int option;
  serve_precond : Kp_precond.Precond.choice;
}

type setup = {
  prime : int;
  seed : int;
  matrix : string option;
  random : int option;
  rank_hint : int option;
  engine : Kp_serve.Protocol.engine;
  block_factor : int option;
  deadline_ms : int option;
  stats : [ `Text | `Json ] option;
  domains : int;
  batch : string option;
  session : bool;
  precond : Kp_precond.Precond.choice;
}

module O = Kp_robust.Outcome
module Pc = Kp_precond.Precond

let deadline_ns setup =
  Option.map Kp_robust.Retry.deadline_after_ms setup.deadline_ms

(* --domains N > 1: run the command's solver core on an N-domain pool (the
   PRAM stand-in); pooled kernels return the same answers as sequential
   ones, so this only changes the schedule and the pool.* counters *)
let with_pool_opt ~domains f =
  if domains > 1 then Kp_util.Pool.with_pool ~domains (fun p -> f (Some p))
  else f None

(* the ladder's one stderr line per fall-through, read back from the
   serve.engine.fallback events it emitted *)
let report_fallbacks () =
  List.iter
    (fun { Kp_obs.Events.name; attrs; _ } ->
      if name = "serve.engine.fallback" then
        let attr k = Option.value (List.assoc_opt k attrs) ~default:"" in
        Printf.eprintf "%s engine failed (%s); falling back to %s\n%!"
          (attr "from") (attr "error") (attr "to"))
    (Kp_obs.Events.snapshot ())

(* all subcommand bodies, generic in the runtime field *)
module Cmds (F : Kp_field.Field_intf.FIELD with type t = int) = struct
  module M = Kp_matrix.Dense.Make (F)
  module C = Kp_poly.Conv.Karatsuba_field (F)
  module E = Kp_serve.Engines.Make (F) (C)
  module TC = Kp_structured.Toeplitz_charpoly.Make (F) (C)
  module Ch = Kp_structured.Chistov.Make (F) (C)
  module Srv = Kp_serve.Server.Make (F) (C)

  (* A matrix file holds n, the n² entries row-major, then optionally the
     n entries of b, read straight into A's row-major data and into b:
     F.of_int of each entry, no copy of the file or of its integers.  A
     is sized from n, capped by the tokens the file's length can hold, so
     a file that claims a huge n is refused without allocating n²; with
     no length (a pipe) it grows by doubling up to n².  Any count other
     than n² or n² + n is refused once the whole file is read *)
  let read_matrix path =
    let tokens = ref 0 and n = ref 0 and nn = ref 0 and room = ref None in
    let data = ref [||] and rhs = ref [||] in
    iter_ints ~what:"matrix file" path
      ~size:(fun t -> room := Option.map (fun t -> t - 1) t)
      (fun i v ->
        tokens := i;
        let e = i - 2 in
        if i = 1 then begin
          n := v;
          (* n², or max_int where it overflows; 0 stores nothing *)
          nn := if v < 1 then 0 else if v <= max_int / v then v * v else max_int;
          data :=
            Array.make
              (match !room with
              | None -> min !nn 4096
              | Some r -> if !nn <= r then !nn else 0)
              F.zero
        end
        else if e < !nn then begin
          if e = Array.length !data then begin
            let bigger = Array.make (min !nn (max 4096 (2 * e))) F.zero in
            Array.blit !data 0 bigger 0 e;
            data := bigger
          end;
          Array.unsafe_set !data e (F.of_int v)
        end
        else if !n >= 1 && e - !nn < !n then begin
          if e = !nn then rhs := Array.make !n F.zero;
          !rhs.(e - !nn) <- F.of_int v
        end);
    (!tokens, !n, !data, !rhs)

  (* every engine needs n >= 1: an empty input is refused here, before
     any of them runs *)
  let load_matrix setup st =
    match (setup.matrix, setup.random) with
    | Some path, _ ->
      let tokens, n, data, rhs = read_matrix path in
      let count = tokens - 1 in
      if tokens = 0 then failwith "matrix file: empty, expected n"
      else if n < 1 then failwith "matrix file: n must be at least 1"
      else if count mod n <> 0 || (count / n <> n && count / n <> n + 1) then
        failwith
          (Printf.sprintf
             "matrix file: n = %d needs n^2 = %d or n^2 + n = %d entries \
              after n, got %d"
             n (n * n) ((n * n) + n) count)
      else
        ( { M.rows = n; cols = n; data },
          if count = n * n then None else Some rhs )
    | None, Some n when n < 1 -> failwith "--random: n must be at least 1"
    | None, Some n -> (
      match setup.rank_hint with
      | Some r -> (M.random_of_rank st n ~rank:r, None)
      | None -> (M.random_nonsingular st n, None))
    | None, None -> failwith "provide --matrix FILE or --random N"

  let load_batch path ~n =
    let ints = read_ints ~what:"batch file" path in
    let len = Array.length ints in
    if len = 0 || len mod n <> 0 then
      failwith
        (Printf.sprintf
           "batch file: expected a positive multiple of n = %d integers, got %d"
           n len)
    else
      Array.init (len / n) (fun i ->
          Array.init n (fun j -> F.of_int ints.((i * n) + j)))

  (* every command asks the one engine ladder, Kp_serve.Engines, with the
     state that drew its input; the deadline starts once the input is in *)
  let ask setup k =
    with_pool_opt ~domains:setup.domains @@ fun pool ->
    let st = Kp_util.Rng.make setup.seed in
    let a, b = load_matrix setup st in
    k (E.create ?pool ~precond:setup.precond st) st a b

  let print_vec name x =
    Array.iteri
      (fun i v -> Printf.printf "  %s_%d = %s\n" name i (F.to_string v))
      x

  (* a command's verdict, after its fall-through lines: [print] shows the
     answer; Singular is an answer too, with its checked kernel vector w;
     any other error is the typed failure (its taxonomy on one line, and
     as a robust.failure event in --stats=json) *)
  let answer print result =
    report_fallbacks ();
    match result with
    | Ok v ->
      print v;
      `Ok ()
    | Error (O.Singular { kernel; _ }) ->
      print_endline "matrix is singular (checked kernel vector: A·w = 0):";
      print_vec "w" kernel;
      `Ok ()
    | Error e -> `Error (false, O.error_to_string e)

  let print_solution (x, engine, rep) =
    Printf.printf "solution (engine: %s, attempts: %d):\n" engine
      rep.O.attempts;
    print_vec "x" x

  let print_batch (xs, engine, rep) =
    Printf.printf "batch of %d (engine: %s, attempts: %d):\n" (Array.length xs)
      engine rep.O.attempts;
    Array.iteri
      (fun k x ->
        Printf.printf " b[%d]:\n" k;
        print_vec "x" x)
      xs

  let solve setup =
    let engine = setup.engine and block_factor = setup.block_factor in
    ask setup @@ fun eng st a b ->
    let n = a.M.rows in
    let b =
      match b with Some b -> b | None -> Array.init n (fun _ -> F.random st)
    in
    match (setup.batch, setup.session) with
    | None, false ->
      answer print_solution
        (E.solve ?deadline_ns:(deadline_ns setup) ?block_factor ~engine eng a b)
    | batch, _ ->
      (* --batch and --session ask for a batch, which the scalar rung
         serves from one session: the generator computed once *)
      let bs =
        match batch with Some path -> load_batch path ~n | None -> [| b |]
      in
      answer print_batch
        (E.solve_batch ?deadline_ns:(deadline_ns setup) ?block_factor ~engine
           eng a bs)

  let det setup =
    ask setup @@ fun eng _ a _ ->
    answer (fun (d, _, _) ->
        Printf.printf "det = %s  (mod %d)\n" (F.to_string d) setup.prime)
    @@ E.det ?deadline_ns:(deadline_ns setup) ?block_factor:setup.block_factor
         ~engine:setup.engine eng a

  let rank setup =
    ask setup @@ fun eng _ a _ ->
    answer (fun (r, _) -> Printf.printf "rank = %d\n" r)
    @@ E.rank ?deadline_ns:(deadline_ns setup) ~engine:setup.engine eng a

  let inverse setup =
    ask setup @@ fun eng _ a _ ->
    answer (fun (inv, _, _) -> print_string (M.to_string inv))
    @@ E.inverse ?deadline_ns:(deadline_ns setup) ~engine:setup.engine eng a

  let serve ~domains ~seed (o : serve_opts) =
    with_pool_opt ~domains @@ fun pool ->
    let st = Kp_util.Rng.make seed in
    let cfg =
      {
        Srv.socket_path = o.socket;
        max_n = o.max_n;
        queue_limit = o.queue_limit;
        breaker_threshold = o.breaker_threshold;
        breaker_cooldown_ms = o.breaker_cooldown_ms;
        drain_grace_ms = o.drain_grace_ms;
        max_line_bytes = 4 * 1024 * 1024;
        default_deadline_ms = o.default_deadline_ms;
        precond = o.serve_precond;
      }
    in
    let srv = Srv.start ?pool cfg st in
    Srv.install_sigterm srv;
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Srv.drain srv));
    Printf.printf
      "kp serve: listening on %s (GF(%d), queue limit %d, max n %d)\n%!"
      o.socket F.characteristic o.queue_limit o.max_n;
    Srv.wait srv;
    (try Unix.unlink o.socket with Unix.Unix_error _ -> ());
    print_endline "kp serve: drained";
    `Ok ()

  let charpoly prime toeplitz =
    let d =
      String.split_on_char ',' toeplitz
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.mapi (fun i s ->
             match int_of_string_opt s with
             | Some v -> F.of_int v
             | None ->
               Printf.ksprintf failwith
                 "toeplitz: token %d (%S) is not an integer" (i + 1) s)
      |> Array.of_list
    in
    let len = Array.length d in
    if len land 1 = 0 then
      `Error (false, "diagonal vector must have odd length 2n-1")
    else begin
      let n = (len + 1) / 2 in
      let cp =
        if F.characteristic > n then TC.charpoly ~n d else Ch.charpoly ~n d
      in
      Printf.printf "det(λI - T), low to high coefficients (mod %d):\n" prime;
      Array.iteri (fun i c -> Printf.printf "  λ^%d: %s\n" i (F.to_string c)) cp;
      `Ok ()
    end
end

type ret = [ `Ok of unit | `Error of bool * string ]

module type DRIVER = sig
  val solve : setup -> ret
  val det : setup -> ret
  val rank : setup -> ret
  val inverse : setup -> ret
  val charpoly : int -> string -> ret
  val serve : domains:int -> seed:int -> serve_opts -> ret
end

let dispatch prime k : ret =
  match Kp_field.Gfp.make prime with
  | exception Invalid_argument m -> `Error (false, m)
  | m ->
    let module F = (val m) in
    let module D = Cmds (F) in
    (try k (module D : DRIVER) with Failure m -> `Error (false, m))

(* ---- cmdliner wiring ---- *)

open Cmdliner

let prime_t =
  Arg.(value & opt int 998244353 & info [ "prime"; "p" ] ~doc:"Field prime (< 2^30).")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let matrix_t =
  Arg.(value & opt (some string) None & info [ "matrix"; "m" ] ~doc:"Matrix file.")

let random_t =
  Arg.(value & opt (some int) None & info [ "random"; "n" ] ~doc:"Random n×n input.")

let rank_hint_t =
  Arg.(value & opt (some int) None
       & info [ "rank-hint" ] ~doc:"With --random: generate this exact rank.")

let engine_t =
  Arg.(value
       & opt (enum Kp_serve.Protocol.engines) Kp_serve.Protocol.E_auto
       & info [ "engine" ]
           ~doc:
             "The top rung of the engine ladder, as in $(b,kp serve)'s \
              requests: $(b,auto) or $(b,scalar) (the preconditioned \
              black-box engine, then verified Gaussian elimination), \
              $(b,block) (block Wiedemann on the same black box — b Krylov \
              passes of about 2n/b terms, see $(b,--block-factor) — then \
              scalar, then elimination) or \
              $(b,dense) (the paper's Theorem-4 pipeline alone: the \
              reference engine, no fallback).  $(b,rank) has no scalar or \
              block route: it is elimination unless $(b,dense).  A \
              singular answer prints a kernel vector w with A·w = 0, \
              checked by the rung.  Each fall-through to the next rung \
              prints one line on stderr.")

let block_factor_t =
  Arg.(value & opt (some int) None
       & info [ "block-factor" ]
           ~doc:
             "With $(b,--engine block): the blocking factor b — the number \
              of Krylov passes of about 2n/b terms, and of right-hand sides \
              one block run can carry.  Default: automatic from n (4 once \
              n >= 64, else 1).")

let precond_t =
  Arg.(value
       & opt
           (enum
              [ ("auto", Pc.Auto); ("dense", Pc.Forced Pc.Dense_hd);
                ("sparse", Pc.Forced Pc.Sparse_butterfly);
                ("ext", Pc.Forced Pc.Ext_field) ])
           (Pc.default_choice ())
       & info [ "precond" ]
           ~doc:
             "Preconditioner P in \xc3\x83 = A\xc2\xb7P: $(b,auto) (H\xc2\xb7D on the dense \
              engine, the butterfly on the scalar and block ones), $(b,dense) \
              (the paper's H\xc2\xb7D), $(b,sparse) (butterfly network, O(n log n) \
              per apply) or $(b,ext) (extension-field lift for GF(2)-like \
              fields).  Forced non-dense kinds demote to dense on late \
              retries; elimination draws no P.  See $(b,kp precond).  \
              Overrides KP_PRECOND.")

let deadline_t =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ]
           ~doc:
             "Abort with a typed Deadline_exceeded error if the command's \
              randomized core is still retrying after this many \
              milliseconds (monotonic clock).  The engine ladder gives each \
              rung still to run an equal share of what remains, checked \
              between attempts and before the rung starts; an attempt, or \
              elimination once started, runs to completion.")

let domains_t =
  Arg.(value & opt int 1
       & info [ "domains" ]
           ~doc:
             "Run the solver core on a pool of this many domains (the PRAM \
              stand-in).  Results are identical to $(b,--domains 1); the \
              pool.* counters in $(b,--stats) show which fan-outs ran.")

let stats_t =
  Arg.(value
       & opt ~vopt:(Some `Text) (some (enum [ ("text", `Text); ("json", `Json) ])) None
       & info [ "stats" ]
           ~doc:
             "Print an observability report (monotonic span timings, \
              black-box/solver counters, per-attempt events) after the \
              command: $(b,--stats) for text, $(b,--stats=json) for one-line \
              JSON.")

let print_stats = function
  | None -> ()
  | Some `Text -> print_string (Kp_obs.Export.to_text ~label:"kp" ())
  | Some `Json -> print_endline (Kp_obs.Export.to_json ~label:"kp" ())

let batch_t =
  Arg.(value & opt (some string) None
       & info [ "batch" ]
           ~doc:
             "File of k·n whitespace-separated integers: k right-hand sides, \
              all solved through one per-matrix solve session (the \
              black-box generator is computed once, each RHS reuses it).")

let session_t =
  Arg.(value & flag
       & info [ "session" ]
           ~doc:
             "Route the solve through the per-matrix session cache even for \
              a single right-hand side.")

let setup_t =
  let combine prime seed matrix random rank_hint engine block_factor
      deadline_ms stats domains batch session precond =
    { prime; seed; matrix; random; rank_hint; engine; block_factor;
      deadline_ms; stats; domains; batch; session; precond }
  in
  Term.(
    const combine $ prime_t $ seed_t $ matrix_t $ random_t $ rank_hint_t
    $ engine_t $ block_factor_t $ deadline_t $ stats_t $ domains_t $ batch_t
    $ session_t $ precond_t)

let simple_cmd name doc (select : (module DRIVER) -> setup -> ret) =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const (fun setup ->
             let r = dispatch setup.prime (fun d -> select d setup) in
             print_stats setup.stats;
             (r :> unit Cmdliner.Term.ret))
         $ setup_t))

let solve_cmd =
  simple_cmd "solve" "Solve A·x = b through the engine ladder."
    (fun (module D) -> D.solve)

let det_cmd =
  simple_cmd "det" "Determinant through the engine ladder." (fun (module D) ->
      D.det)

let rank_cmd =
  simple_cmd "rank"
    "Rank through the engine ladder: verified elimination under \
     $(b,auto), $(b,scalar) and $(b,block) (neither black-box engine has \
     a rank route); $(b,--engine dense) runs the §5 nullspace alone and \
     answers n minus the size of its checked kernel basis."
    (fun (module D) -> D.rank)

let inverse_cmd =
  simple_cmd "inverse"
    "Inverse through the engine ladder ($(b,--engine dense): Baur–Strassen, \
     Theorem 6, up to n = 8; n Theorem-4 solves above)."
    (fun (module D) -> D.inverse)

(* kp kernels — which bulk-arithmetic backend each built-in field resolves
   to (the same dispatch Dense/Sparse/Conv/Toeplitz perform at functor
   application time via [F.kernel_hint]) *)
let kernels_cmd =
  let resolve (type a) name (module F : Kp_field.Field_intf.FIELD with type t = a)
      =
    (name, Kp_kernel.Dispatch.backend_name F.kernel_hint)
  in
  let rows () =
    let module Cnt = Kp_field.Counting.Make (Kp_field.Fields.Gf_ntt) in
    [
      resolve "GF(998244353)      Fields.Gf_ntt" (module Kp_field.Fields.Gf_ntt);
      resolve "GF(1073741789)     Fields.Gf_big" (module Kp_field.Fields.Gf_big);
      resolve "GF(97)             Fields.Gf_97" (module Kp_field.Fields.Gf_97);
      resolve "GF(2)              Fields.Gf2" (module Kp_field.Fields.Gf2);
      resolve "GF(2^16)           Fields.Gf2_16" (module Kp_field.Fields.Gf2_16);
      resolve "Q                  Fields.Q" (module Kp_field.Fields.Q);
      resolve "counting(Gf_ntt)   Counting.Make" (module Cnt);
    ]
  in
  let run prime =
    (* the runtime field every kp subcommand actually computes in *)
    (match Kp_field.Gfp.make prime with
    | exception Invalid_argument m -> Printf.printf "kp --prime %d: %s\n" prime m
    | m ->
      let module F = (val m) in
      Printf.printf "kp --prime %d resolves to: %s (%s)\n" prime
        (Kp_kernel.Dispatch.backend_name F.kernel_hint)
        (Kp_kernel.Cstub.gfp_isa ()));
    (match Kp_kernel.Cstub.gfp_isa () with
    | "avx512f" ->
      print_endline
        "GF(p) black-box loops: dense apply and butterfly network on \
         AVX-512 intrinsics loops, sparse apply on the SELL-8 AVX-512 \
         gather loop"
    | isa ->
      Printf.printf
        "GF(p) black-box loops: dense apply and butterfly network on the \
         plain bodies' %s clones, sparse apply on the CSR loop (no \
         AVX-512)\n"
        isa);
    print_endline
      "(--prime 2 runs gfp_cstub at p = 2; gf2_cstub serves Fields.Gf2)\n";
    print_endline "built-in fields:";
    List.iter
      (fun (name, backend) -> Printf.printf "  %-36s %s\n" name backend)
      (rows ());
    print_endline
      "\nbackends: gfp_cstub/gf2_cstub (C stubs, split-sum, Shoup and\n\
       Barrett reduction / 64-bit packing, Bigarray scratch; the\n\
       parenthesis names the instruction set of the GF(p) loops: on\n\
       avx512f a dense black box's prepared apply and the butterfly\n\
       network run AVX-512 intrinsics loops and a sparse black box is\n\
       prepared as SELL-8 for an AVX-512 gather loop, on avx2 or default\n\
       the first two run that clone of their plain bodies and the sparse\n\
       apply the CSR loop), derived (generic FIELD_CORE ops —\n\
       op-count-faithful; circuits and counting fields always land\n\
       here).\n\
       kernel.cstub.* counters in --stats prove the stub path ran."
  in
  Cmd.v
    (Cmd.info "kernels"
       ~doc:
         "Print which bulk vector-kernel backend each built-in field's \
          arithmetic dispatches to.")
    Term.(const run $ prime_t)

(* kp precond — the pluggable preconditioner registry: one line per kind,
   plus the resolution and retry contract the solvers apply *)
let precond_cmd =
  let run () =
    Printf.printf "default choice: %s%s\n\n" (Pc.choice_name (Pc.default_choice ()))
      (match Sys.getenv_opt "KP_PRECOND" with
      | Some s -> Printf.sprintf " (KP_PRECOND=%s)" s
      | None -> "");
    print_endline "registered preconditioner kinds:";
    List.iter
      (fun k -> Printf.printf "  %-10s %s\n" (Pc.kind_name k) (Pc.describe k))
      Pc.all_kinds;
    print_endline
      "\nresolution: --precond auto picks dense for the dense engine and\n\
       sparse for the black-box ones (scalar and block); --precond\n\
       dense|sparse|ext forces a kind.\n\
       Retry contract: a forced non-dense kind demotes to dense for the\n\
       second half of the retry budget (precond.demote counts this), and\n\
       the escalation ceiling of the random-sample domain S is the kind's\n\
       own (ext lifts GF(2) draws into GF(2^k)).  The per-kind build\n\
       counters precond.build.* appear in --stats."
  in
  Cmd.v
    (Cmd.info "precond"
       ~doc:
         "List the registered preconditioner kinds and the           resolution/demotion contract behind $(b,--precond).")
    Term.(const run $ const ())

let serve_cmd =
  let socket_t =
    Arg.(value & opt string "/tmp/kp-serve.sock"
         & info [ "socket" ] ~doc:"Unix domain socket path to listen on.")
  in
  let queue_limit_t =
    Arg.(value & opt int 64
         & info [ "queue-limit" ]
             ~doc:
               "Admission bound: requests arriving when this many are \
                already queued are shed with a typed $(b,overloaded) error \
                and a retry-after hint.")
  in
  let max_n_t =
    Arg.(value & opt int 512
         & info [ "max-n" ]
             ~doc:
               (Printf.sprintf
                  "Largest accepted matrix dimension; larger requests are \
                   a typed $(b,too_large) rejection.  An \
                   $(b,\"engine\":\"dense\") request is held to at most %d \
                   as well."
                  Kp_serve.Protocol.dense_max_n))
  in
  let breaker_threshold_t =
    Arg.(value & opt int 3
         & info [ "breaker-threshold" ]
             ~doc:
               "Consecutive engine failures that open its circuit breaker \
                (demoting block → scalar → elimination; the dense and \
                elimination rungs have none).")
  in
  let breaker_cooldown_t =
    Arg.(value & opt int 2000
         & info [ "breaker-cooldown-ms" ]
             ~doc:
               "How long an open breaker waits before half-opening to probe \
                the engine again (re-promotion).")
  in
  let drain_grace_t =
    Arg.(value & opt int 5000
         & info [ "drain-grace-ms" ]
             ~doc:
               "Hard bound on graceful shutdown: on SIGTERM the daemon stops \
                accepting, finishes queued and in-flight work, and exits \
                within this bound.")
  in
  let default_deadline_t =
    Arg.(value & opt (some int) None
         & info [ "default-deadline-ms" ]
             ~doc:
               "Deadline applied to requests that carry no \
                $(b,deadline_ms) of their own.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent solve daemon: newline-delimited JSON over a \
          Unix socket, with admission control, per-request deadlines, \
          per-engine circuit breakers and graceful SIGTERM drain.")
    Term.(
      ret
        (const (fun prime seed domains socket queue_limit max_n
                    breaker_threshold breaker_cooldown_ms drain_grace_ms
                    default_deadline_ms serve_precond ->
             let opts =
               { socket; queue_limit; max_n; breaker_threshold;
                 breaker_cooldown_ms; drain_grace_ms; default_deadline_ms;
                 serve_precond }
             in
             (dispatch prime (fun (module D : DRIVER) ->
                  D.serve ~domains ~seed opts)
               :> unit Cmdliner.Term.ret))
         $ prime_t $ seed_t $ domains_t $ socket_t $ queue_limit_t $ max_n_t
         $ breaker_threshold_t $ breaker_cooldown_t $ drain_grace_t
         $ default_deadline_t $ precond_t))

let charpoly_cmd =
  let toeplitz_t =
    Arg.(required & opt (some string) None
         & info [ "toeplitz" ] ~doc:"Comma-separated diagonal vector (length 2n-1).")
  in
  Cmd.v
    (Cmd.info "charpoly"
       ~doc:"Characteristic polynomial of a Toeplitz matrix (Theorem 3).")
    Term.(
      ret
        (const (fun p t stats ->
             let r = dispatch p (fun (module D : DRIVER) -> D.charpoly p t) in
             print_stats stats;
             (r :> unit Cmdliner.Term.ret))
         $ prime_t $ toeplitz_t $ stats_t))

let () =
  let info =
    Cmd.info "kp" ~version:"1.0.0"
      ~doc:"Processor-efficient parallel linear algebra (Kaltofen–Pan, SPAA 1991)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ solve_cmd; det_cmd; rank_cmd; inverse_cmd; charpoly_cmd;
            kernels_cmd; precond_cmd; serve_cmd ]))
