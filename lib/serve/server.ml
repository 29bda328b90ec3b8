module Make
    (F : Kp_field.Field_intf.FIELD with type t = int)
    (C : Kp_poly.Conv.S with type elt = F.t) =
struct
  module E = Engines.Make (F) (C)
  module M = E.M
  module O = Kp_robust.Outcome
  module Retry = Kp_robust.Retry
  module Cnt = Kp_obs.Counter
  module Events = Kp_obs.Events
  module Clock = Kp_obs.Clock
  module P = Protocol

  type config = {
    socket_path : string;
    max_n : int;
    queue_limit : int;
    breaker_threshold : int;
    breaker_cooldown_ms : int;
    drain_grace_ms : int;
    max_line_bytes : int;
    default_deadline_ms : int option;
    precond : Kp_precond.Precond.choice;
  }

  let default_config ~socket_path =
    {
      socket_path;
      max_n = 512;
      queue_limit = 64;
      breaker_threshold = 3;
      breaker_cooldown_ms = 2000;
      drain_grace_ms = 5000;
      max_line_bytes = 4 * 1024 * 1024;
      default_deadline_ms = None;
      precond = Kp_precond.Precond.default_choice ();
    }

  type conn = {
    fd : Unix.file_descr;
    rbuf : Buffer.t;
    wmutex : Mutex.t;
    pending : int Atomic.t;  (* queued + in-flight jobs for this conn *)
    mutable alive : bool;
  }

  type job = { conn : conn; req : P.request; deadline_ns : int64 option }

  (* mode: 0 running / 1 draining / 2 stopped *)

  type t = {
    cfg : config;
    listener : Unix.file_descr;
    eng : E.t;
    mode : int Atomic.t;
    drain_started_ns : int64 Atomic.t;
    queue : job Queue.t;
    qmutex : Mutex.t;
    qcond : Condition.t;
    qdepth : int Atomic.t;
    inflight : int Atomic.t;
    ema_ms : int Atomic.t;  (* EMA of per-request service time *)
    registry : (string, M.t) Hashtbl.t;  (* worker-owned *)
    mutable io_thread : Thread.t option;
    mutable worker_thread : Thread.t option;
    c_accept : Cnt.t;
    c_requests : Cnt.t;
    c_admitted : Cnt.t;
    c_shed : Cnt.t;
    c_bad : Cnt.t;
    c_ok : Cnt.t;
    c_err : Cnt.t;
  }

  let ms_to_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L

  (* ---- replies (IO thread and worker both send; per-conn mutex) ---- *)

  let send t conn line =
    Mutex.lock conn.wmutex;
    (try
       if conn.alive then begin
         let payload = line ^ "\n" in
         let len = String.length payload in
         let off = ref 0 in
         while !off < len do
           off := !off + Unix.write_substring conn.fd payload !off (len - !off)
         done
       end
     with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
    Mutex.unlock conn.wmutex;
    ignore t

  let send_ok t conn line =
    Cnt.incr t.c_ok;
    send t conn line

  let send_err t conn line =
    Cnt.incr t.c_err;
    send t conn line

  let send_bad t conn ~id rej =
    Cnt.incr t.c_bad;
    send t conn (P.bad_request ~id rej)

  (* ---- worker: the solve half ---- *)

  let conv_vec b = Array.map F.of_int b

  let resolve_matrix t ~engine (m : P.matrix_ref) =
    match m with
    | P.Keyed k -> (
      match Hashtbl.find_opt t.registry k with
      | Some a ->
        (* an inline matrix met [check_n] at parse time; a keyed one
           meets it here, for this request's engine *)
        Result.map
          (fun () -> (a, Some k))
          (P.check_n ~max_n:t.cfg.max_n engine a.M.rows)
      | None ->
        Error
          {
            P.code = "unknown_key";
            detail = Printf.sprintf "no matrix registered under key %S" k;
          })
    | P.Inline { n; entries; key } ->
      let a = M.init n n (fun i j -> F.of_int entries.((i * n) + j)) in
      (match key with Some k -> Hashtbl.replace t.registry k a | None -> ());
      Ok (a, key)

  let ints xs = Wire.Arr (Array.to_list (Array.map (fun x -> Wire.Int x) xs))

  let check_rhs ~n name b k =
    if Array.length b <> n then
      Error
        {
          P.code = "bad_dimensions";
          detail =
            Printf.sprintf "%s has length %d, matrix is %dx%d" name
              (Array.length b) n n;
        }
    else k ()

  let handle_job t (job : job) =
    let id = job.req.id in
    let deadline_ns = job.deadline_ns in
    let engine = job.req.engine in
    let block_factor = job.req.block_factor in
    let reply_result ~fields = function
      | Ok (engine_used, report_attempts, payload) ->
        send_ok t job.conn
          (P.ok ~id
             (fields payload
             @ [
                 ("engine", Wire.Str engine_used);
                 ("attempts", Wire.Int report_attempts);
               ]))
      | Error e -> send_err t job.conn (P.error ~id ~kernel:ints e)
    in
    let mref =
      match job.req.op with
      | P.Ping | P.Metrics -> None (* handled on the IO thread *)
      | P.Solve { m; _ } | P.Batch { m; _ } | P.Det m | P.Rank m
      | P.Inverse m ->
        Some m
    in
    match mref with
    | None -> ()
    | Some m -> (
      match resolve_matrix t ~engine m with
      | Error rej -> send_bad t job.conn ~id rej
      | Ok (a, key) -> (
        let n = a.M.rows in
        match job.req.op with
        | P.Ping | P.Metrics -> ()
        | P.Solve { b; _ } -> (
          match
            check_rhs ~n "\"b\"" b @@ fun () ->
            Ok
              (E.solve ?key ?deadline_ns ?block_factor ~engine t.eng a
                 (conv_vec b))
          with
          | Error rej -> send_bad t job.conn ~id rej
          | Ok (Ok (x, eng_name, rep)) ->
            reply_result
              ~fields:(fun x -> [ ("x", ints x) ])
              (Ok (eng_name, rep.O.attempts, x))
          | Ok (Error e) -> send_err t job.conn (P.error ~id ~kernel:ints e))
        | P.Batch { bs; _ } -> (
          let bad =
            Array.fold_left
              (fun acc b ->
                match acc with
                | Some _ -> acc
                | None -> (
                  match check_rhs ~n "\"bs\" row" b (fun () -> Ok ()) with
                  | Error rej -> Some rej
                  | Ok () -> None))
              None bs
          in
          match bad with
          | Some rej -> send_bad t job.conn ~id rej
          | None -> (
            match
              E.solve_batch ?key ?deadline_ns ?block_factor ~engine t.eng a
                (Array.map conv_vec bs)
            with
            | Ok (xs, eng_name, rep) ->
              reply_result
                ~fields:(fun xs ->
                  [ ("xs", Wire.Arr (Array.to_list (Array.map ints xs))) ])
                (Ok (eng_name, rep.O.attempts, xs))
            | Error e -> send_err t job.conn (P.error ~id ~kernel:ints e)))
        | P.Det _ -> (
          match E.det ?key ?deadline_ns ?block_factor ~engine t.eng a with
          | Ok (d, eng_name, rep) ->
            reply_result
              ~fields:(fun d -> [ ("det", Wire.Int d) ])
              (Ok (eng_name, rep.O.attempts, d))
          | Error e -> send_err t job.conn (P.error ~id ~kernel:ints e))
        | P.Rank _ -> (
          match E.rank ?deadline_ns ~engine t.eng a with
          | Ok (r, eng_name) ->
            reply_result
              ~fields:(fun r -> [ ("rank", Wire.Int r) ])
              (Ok (eng_name, 1, r))
          | Error e -> send_err t job.conn (P.error ~id ~kernel:ints e))
        | P.Inverse _ -> (
          match E.inverse ?key ?deadline_ns ~engine t.eng a with
          | Ok (inv, eng_name, rep) ->
            reply_result
              ~fields:(fun (inv : M.t) ->
                [ ("n", Wire.Int inv.M.rows); ("a", ints inv.M.data) ])
              (Ok (eng_name, rep.O.attempts, inv))
          | Error e -> send_err t job.conn (P.error ~id ~kernel:ints e))))

  let worker_loop t =
    let rec loop () =
      Mutex.lock t.qmutex;
      while Queue.is_empty t.queue && Atomic.get t.mode < 2 do
        Condition.wait t.qcond t.qmutex
      done;
      if Queue.is_empty t.queue then Mutex.unlock t.qmutex (* stopped *)
      else begin
        let job = Queue.pop t.queue in
        Atomic.set t.qdepth (Queue.length t.queue);
        Atomic.set t.inflight 1;
        Mutex.unlock t.qmutex;
        let t0 = Clock.now_ns () in
        (try handle_job t job
         with e ->
           send_err t job.conn
             (P.error ~id:job.req.id ~kernel:ints
                (O.Fault_detected
                   { op = "serve.worker"; detail = Printexc.to_string e })));
        Atomic.decr job.conn.pending;
        let ms =
          Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) t0) 1_000_000L)
        in
        let ema = Atomic.get t.ema_ms in
        Atomic.set t.ema_ms (max 1 (((3 * ema) + ms) / 4));
        Mutex.lock t.qmutex;
        Atomic.set t.inflight 0;
        Mutex.unlock t.qmutex;
        loop ()
      end
    in
    loop ()

  (* ---- IO thread: accept, read, admit ---- *)

  let metrics_line ~id =
    let obj kvs = Wire.Obj (List.map (fun (k, v) -> (k, Wire.Int v)) kvs) in
    P.ok ~id
      [
        ("counters", obj (Cnt.snapshot ()));
        ("gauges", obj (Cnt.gauges_snapshot ()));
      ]

  let admit t conn (req : P.request) =
    Atomic.incr conn.pending;
    let deadline_ns =
      match req.deadline_ms with
      | Some ms -> Some (Retry.deadline_after_ms ms)
      | None -> Option.map Retry.deadline_after_ms t.cfg.default_deadline_ms
    in
    Mutex.lock t.qmutex;
    let depth = Queue.length t.queue in
    if depth >= t.cfg.queue_limit then begin
      Mutex.unlock t.qmutex;
      Cnt.incr t.c_shed;
      Atomic.decr conn.pending;
      let retry_after_ms = (depth + 1) * max 1 (Atomic.get t.ema_ms) in
      Events.emit "serve.shed"
        [
          ("depth", string_of_int depth);
          ("retry_after_ms", string_of_int retry_after_ms);
        ];
      send_err t conn
        (P.error ~id:req.id ~kernel:ints
           (O.Overloaded { queue_depth = depth; retry_after_ms }))
    end
    else begin
      Queue.push { conn; req; deadline_ns } t.queue;
      Atomic.set t.qdepth (Queue.length t.queue);
      Condition.signal t.qcond;
      Mutex.unlock t.qmutex;
      Cnt.incr t.c_admitted
    end

  let process_line t conn line =
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    if line <> "" then begin
      Cnt.incr t.c_requests;
      match P.parse_request ~max_n:t.cfg.max_n line with
      | Error rej -> send_bad t conn ~id:(P.salvage_id line) rej
      | Ok req -> (
        match req.op with
        | P.Ping -> send_ok t conn (P.ok ~id:req.id [ ("pong", Wire.Bool true) ])
        | P.Metrics -> send_ok t conn (metrics_line ~id:req.id)
        | _ -> admit t conn req)
    end

  (* pull complete lines out of the connection buffer *)
  let drain_lines t conn =
    let data = Buffer.contents conn.rbuf in
    match String.rindex_opt data '\n' with
    | None ->
      if String.length data > t.cfg.max_line_bytes then begin
        send_bad t conn ~id:None
          {
            P.code = "oversized";
            detail =
              Printf.sprintf "request line exceeds %d bytes"
                t.cfg.max_line_bytes;
          };
        conn.alive <- false
      end
    | Some last ->
      Buffer.clear conn.rbuf;
      Buffer.add_string conn.rbuf
        (String.sub data (last + 1) (String.length data - last - 1));
      String.sub data 0 last
      |> String.split_on_char '\n'
      |> List.iter (fun line -> process_line t conn line)

  let read_conn t conn =
    let chunk = Bytes.create 65536 in
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      conn.alive <- false;
      true
    | k ->
      Buffer.add_subbytes conn.rbuf chunk 0 k;
      drain_lines t conn;
      true
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> false
    | exception Unix.Unix_error _ ->
      conn.alive <- false;
      true

  let io_loop t =
    let conns = ref [] in
    let listener_open = ref true in
    let quiet = ref 0 in
    let rec loop () =
      if Atomic.get t.mode >= 2 then ()
      else begin
        if Atomic.get t.mode = 1 && !listener_open then begin
          (try Unix.close t.listener with Unix.Unix_error _ -> ());
          listener_open := false;
          Events.emit "serve.drain" [ ("phase", "begin") ]
        end;
        let read_fds =
          (if !listener_open then [ t.listener ] else [])
          @ List.filter_map
              (fun c -> if c.alive then Some c.fd else None)
              !conns
        in
        let readable, _, _ =
          try Unix.select read_fds [] [] 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let activity = ref false in
        List.iter
          (fun fd ->
            if !listener_open && fd = t.listener then begin
              match Unix.accept t.listener with
              | cfd, _ ->
                activity := true;
                Cnt.incr t.c_accept;
                conns :=
                  {
                    fd = cfd;
                    rbuf = Buffer.create 256;
                    wmutex = Mutex.create ();
                    pending = Atomic.make 0;
                    alive = true;
                  }
                  :: !conns
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd) !conns with
              | Some c when c.alive -> if read_conn t c then activity := true
              | _ -> ())
          readable;
        (* reap: only once no queued/in-flight job still points at the fd *)
        conns :=
          List.filter
            (fun c ->
              if c.alive || Atomic.get c.pending > 0 then true
              else begin
                (try Unix.close c.fd with Unix.Unix_error _ -> ());
                false
              end)
            !conns;
        (if Atomic.get t.mode = 1 then begin
           Mutex.lock t.qmutex;
           let idle =
             Queue.is_empty t.queue && Atomic.get t.inflight = 0
             && not !activity
           in
           Mutex.unlock t.qmutex;
           if idle then incr quiet else quiet := 0;
           let grace_over =
             Int64.compare (Clock.now_ns ())
               (Int64.add
                  (Atomic.get t.drain_started_ns)
                  (ms_to_ns t.cfg.drain_grace_ms))
             >= 0
           in
           if !quiet >= 2 || grace_over then begin
             Events.emit "serve.drain"
               [ ("phase", (if grace_over then "grace_expired" else "done")) ];
             Atomic.set t.mode 2;
             Mutex.lock t.qmutex;
             Condition.broadcast t.qcond;
             Mutex.unlock t.qmutex
           end
         end);
        loop ()
      end
    in
    loop ();
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    if !listener_open then
      try Unix.close t.listener with Unix.Unix_error _ -> ()

  (* ---- lifecycle ---- *)

  let breaker_gauge name = "serve.breaker." ^ name ^ ".state"

  let start ?pool ?now cfg st =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let session = E.Sess.create ?pool ~precond:cfg.precond st in
    let eng =
      E.create ~breaker_threshold:cfg.breaker_threshold
        ~breaker_cooldown_ns:(ms_to_ns cfg.breaker_cooldown_ms)
        ?now ~session ?pool ~precond:cfg.precond st
    in
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path);
       Unix.listen listener 64
     with e ->
       (try Unix.close listener with Unix.Unix_error _ -> ());
       raise e);
    let t =
      {
        cfg;
        listener;
        eng;
        mode = Atomic.make 0;
        drain_started_ns = Atomic.make 0L;
        queue = Queue.create ();
        qmutex = Mutex.create ();
        qcond = Condition.create ();
        qdepth = Atomic.make 0;
        inflight = Atomic.make 0;
        ema_ms = Atomic.make 50;
        registry = Hashtbl.create 16;
        io_thread = None;
        worker_thread = None;
        c_accept = Cnt.make "serve.conn.accept";
        c_requests = Cnt.make "serve.requests";
        c_admitted = Cnt.make "serve.admitted";
        c_shed = Cnt.make "serve.shed";
        c_bad = Cnt.make "serve.bad_request";
        c_ok = Cnt.make "serve.replies.ok";
        c_err = Cnt.make "serve.replies.error";
      }
    in
    Cnt.register_gauge "serve.queue.depth" (fun () -> Atomic.get t.qdepth);
    Cnt.register_gauge "serve.inflight" (fun () -> Atomic.get t.inflight);
    Cnt.register_gauge "serve.draining" (fun () ->
        if Atomic.get t.mode > 0 then 1 else 0);
    List.iter
      (fun (name, _) ->
        Cnt.register_gauge
          (breaker_gauge name)
          (fun () -> List.assoc name (E.breaker_codes t.eng)))
      (E.breaker_codes t.eng);
    t.io_thread <- Some (Thread.create io_loop t);
    t.worker_thread <- Some (Thread.create worker_loop t);
    t

  let engines t = t.eng

  (* only atomics: shared by [drain] and the SIGTERM handler *)
  let request_drain t =
    if Atomic.get t.mode = 0 then begin
      (* the start stamp must be visible before the mode flips, or the IO
         thread could read a zero stamp and expire the grace instantly *)
      Atomic.set t.drain_started_ns (Clock.now_ns ());
      ignore (Atomic.compare_and_set t.mode 0 1)
    end

  let drain = request_drain
  let draining t = Atomic.get t.mode > 0

  let wait t =
    Option.iter Thread.join t.io_thread;
    Option.iter Thread.join t.worker_thread

  (* the gauges [start] registered go with the server: a later snapshot
     must not list them, nor their closures keep the engines alive *)
  let stop t =
    drain t;
    wait t;
    List.iter Cnt.unregister_gauge
      ("serve.queue.depth" :: "serve.inflight" :: "serve.draining"
      :: List.map (fun (name, _) -> breaker_gauge name) (E.breaker_codes t.eng));
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()

  let install_sigterm t =
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_drain t))
end
