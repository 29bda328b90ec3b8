type t = { name : string; cell : int Atomic.t }

let mutex = Mutex.create ()
let counters : (string, t) Hashtbl.t = Hashtbl.create 64
let gauges : (string, unit -> int) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let make name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { name; cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let name t = t.name
let incr t = ignore (Atomic.fetch_and_add t.cell 1)
let add t k = ignore (Atomic.fetch_and_add t.cell k)
let value t = Atomic.get t.cell

let find name =
  locked (fun () ->
      Option.map (fun c -> Atomic.get c.cell) (Hashtbl.find_opt counters name))

let register_gauge name f = locked (fun () -> Hashtbl.replace gauges name f)
let unregister_gauge name = locked (fun () -> Hashtbl.remove gauges name)

let gauges_snapshot () =
  let gauge_fns =
    locked (fun () -> Hashtbl.fold (fun n f acc -> (n, f) :: acc) gauges [])
  in
  (* sample outside the lock: a gauge may itself consult the registry *)
  let gauged = List.map (fun (n, f) -> (n, try f () with _ -> 0)) gauge_fns in
  List.sort (fun (a, _) (b, _) -> compare a b) gauged

let snapshot () =
  let counted, gauge_fns =
    locked (fun () ->
        ( Hashtbl.fold (fun n c acc -> (n, Atomic.get c.cell) :: acc) counters [],
          Hashtbl.fold (fun n f acc -> (n, f) :: acc) gauges [] ))
  in
  (* sample gauges outside the lock: a gauge may itself consult the registry *)
  let gauged =
    List.map (fun (n, f) -> (n, try f () with _ -> 0)) gauge_fns
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (counted @ gauged)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters)
