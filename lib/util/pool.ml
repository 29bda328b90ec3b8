type task = unit -> unit

(* Pool telemetry (see Kp_obs): coarse per-chunk events only, so the
   counter traffic is negligible next to the chunk bodies. *)
let c_worker_tasks = Kp_obs.Counter.make "pool.tasks.worker"
let c_helper_tasks = Kp_obs.Counter.make "pool.tasks.helper"
let c_regions = Kp_obs.Counter.make "pool.regions"
let c_region_wait_ns = Kp_obs.Counter.make "pool.region_wait_ns"

type t = {
  streams : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  pending : int Atomic.t;
      (* queued-task count mirrored outside the mutex, so idle workers can
         spin-check for work without taking the lock *)
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Bounded spin before parking (ROADMAP item 3): a worker that just
   finished a chunk usually sees the region's next chunk pushed within a
   microsecond, so a few hundred [cpu_relax] probes of the atomic mirror
   skip the condition-variable round trip on the hot path.  Purely a
   latency knob: the parking path below is unchanged, and scheduling never
   affects results (pooled runs are bit-identical by construction). *)
let spin_budget = 200

let worker_loop t () =
  let rec next () =
    let spins = ref 0 in
    while
      !spins < spin_budget && Atomic.get t.pending = 0 && not t.closing
    do
      Domain.cpu_relax ();
      incr spins
    done;
    Mutex.lock t.mutex;
    let rec wait () =
      if t.closing then begin Mutex.unlock t.mutex; None end
      else if Queue.is_empty t.queue then begin
        Condition.wait t.nonempty t.mutex;
        wait ()
      end
      else begin
        let task = Queue.pop t.queue in
        Atomic.decr t.pending;
        Mutex.unlock t.mutex;
        Some task
      end
    in
    match wait () with
    | None -> ()
    | Some task ->
      task ();
      Kp_obs.Counter.incr c_worker_tasks;
      next ()
  in
  next ()

let create ~domains =
  let streams = max 1 (min domains 64) in
  let t =
    { streams;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      pending = Atomic.make 0;
      closing = false;
      workers = [] }
  in
  t.workers <- List.init (streams - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  let workers =
    locked t (fun () ->
        if t.closing then []
        else begin
          t.closing <- true;
          Condition.broadcast t.nonempty;
          let ws = t.workers in
          t.workers <- [];
          ws
        end)
  in
  List.iter Domain.join workers

let size t = t.streams

(* A parallel region: enqueue all but one chunk, run the last chunk in the
   caller, then help drain the region's remaining chunks so the caller never
   blocks idle while work is pending. Completion is detected with a counter. *)
type region = {
  mutable pending : int;
  region_mutex : Mutex.t;
  done_cond : Condition.t;
  mutable error : exn option;
}

let region_run t thunks =
  match thunks with
  | [] -> ()
  | [ only ] -> only ()
  | first :: rest ->
    Kp_obs.Counter.incr c_regions;
    let r =
      { pending = List.length rest;
        region_mutex = Mutex.create ();
        done_cond = Condition.create ();
        error = None }
    in
    let wrap thunk () =
      (try thunk () with
      | e ->
        Mutex.lock r.region_mutex;
        if r.error = None then r.error <- Some e;
        Mutex.unlock r.region_mutex);
      Mutex.lock r.region_mutex;
      r.pending <- r.pending - 1;
      if r.pending = 0 then Condition.broadcast r.done_cond;
      Mutex.unlock r.region_mutex
    in
    locked t (fun () ->
        List.iter
          (fun thunk ->
            Queue.push (wrap thunk) t.queue;
            Atomic.incr t.pending)
          rest;
        Condition.broadcast t.nonempty);
    (* Caller executes its own chunk, then helps with queued work. *)
    (try first () with
    | e ->
      Mutex.lock r.region_mutex;
      if r.error = None then r.error <- Some e;
      Mutex.unlock r.region_mutex);
    let rec help () =
      let task =
        locked t (fun () ->
            if Queue.is_empty t.queue then None
            else begin
              Atomic.decr t.pending;
              Some (Queue.pop t.queue)
            end)
      in
      match task with
      | Some task ->
        task ();
        Kp_obs.Counter.incr c_helper_tasks;
        help ()
      | None ->
        let t0 = Kp_obs.Clock.now_ns () in
        Mutex.lock r.region_mutex;
        while r.pending > 0 do
          Condition.wait r.done_cond r.region_mutex
        done;
        Mutex.unlock r.region_mutex;
        Kp_obs.Counter.add c_region_wait_ns
          (Int64.to_int (Int64.sub (Kp_obs.Clock.now_ns ()) t0))
    in
    help ();
    (match r.error with None -> () | Some e -> raise e)

let parallel_for_chunked t ~lo ~hi ~chunk f =
  if hi > lo then begin
    let chunk = max 1 chunk in
    let rec chunks cl acc =
      if cl >= hi then List.rev acc
      else
        let ch = min hi (cl + chunk) in
        chunks ch ((fun () -> f cl ch) :: acc)
    in
    region_run t (chunks lo [])
  end

let parallel_for t ~lo ~hi f =
  if hi > lo then begin
    let n = hi - lo in
    (* Aim for a few chunks per stream for load balance. *)
    let chunk = max 1 (n / (4 * t.streams)) in
    parallel_for_chunked t ~lo ~hi ~chunk (fun cl ch ->
        for i = cl to ch - 1 do
          f i
        done)
  end

let parallel_init t n f =
  if n = 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    parallel_for t ~lo:1 ~hi:n (fun i -> out.(i) <- f i);
    out
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
