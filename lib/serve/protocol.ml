type engine = E_auto | E_block | E_scalar | E_dense

let engines =
  [ ("auto", E_auto); ("block", E_block); ("scalar", E_scalar);
    ("dense", E_dense) ]

let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

(* the dense engine is the Theorem-4 reference, dearer per n than every
   other rung (its det took 7.8 s at n = 512, its inverse is n Theorem-4
   solves), and a deadline cannot cut an attempt short, so the wire
   admits it on small matrices only *)
let dense_max_n = 64

type reject = { code : string; detail : string }

let check_n ~max_n engine n =
  let limit = if engine = E_dense then min max_n dense_max_n else max_n in
  if n <= limit then Ok ()
  else
    Error
      {
        code = "too_large";
        detail =
          Printf.sprintf "n = %d exceeds this server's limit %d for engine %S"
            n limit (engine_name engine);
      }

type matrix_ref =
  | Inline of { n : int; entries : int array; key : string option }
  | Keyed of string

type op =
  | Ping
  | Metrics
  | Solve of { m : matrix_ref; b : int array }
  | Batch of { m : matrix_ref; bs : int array array }
  | Det of matrix_ref
  | Rank of matrix_ref
  | Inverse of matrix_ref

type request = {
  id : string option;
  op : op;
  engine : engine;
  block_factor : int option;
  deadline_ms : int option;
}

exception Rejected of reject

let reject code fmt =
  Printf.ksprintf (fun detail -> raise (Rejected { code; detail })) fmt

(* ---- parsing ---- *)

let int_field name v =
  match Wire.to_int v with
  | Some i -> i
  | None -> reject "bad_field" "field %S must be an integer" name

let int_array name v =
  match Wire.to_list v with
  | None -> reject "bad_field" "field %S must be an array of integers" name
  | Some items ->
    Array.of_list (List.map (fun x -> int_field name x) items)

let parse_matrix_ref ~max_n ~engine j =
  let key = Option.bind (Wire.member "key" j) Wire.to_str in
  match Wire.member "a" j with
  | None -> (
    match key with
    | Some k -> Keyed k
    | None -> reject "missing_field" "request needs a matrix: \"a\" (+ \"n\") or \"key\"")
  | Some a_json ->
    let n =
      match Option.map (int_field "n") (Wire.member "n" j) with
      | Some n -> n
      | None -> reject "missing_field" "inline matrix needs \"n\""
    in
    if n < 1 then reject "bad_dimensions" "n must be >= 1, got %d" n;
    Result.iter_error (fun r -> raise (Rejected r)) (check_n ~max_n engine n);
    let entries = int_array "a" a_json in
    if Array.length entries <> n * n then
      reject "bad_dimensions" "\"a\" has %d entries, expected n^2 = %d"
        (Array.length entries) (n * n);
    Inline { n; entries; key }

let parse_request ~max_n line =
  match
    match Wire.parse line with
    | Error m -> reject "malformed_json" "%s" m
    | Ok (Wire.Obj _ as j) ->
      let id = Option.bind (Wire.member "id" j) Wire.to_str in
      let opname =
          match Option.bind (Wire.member "op" j) Wire.to_str with
          | Some s -> s
          | None -> reject "missing_field" "request needs an \"op\""
      in
      let engine =
        match Option.bind (Wire.member "engine" j) Wire.to_str with
        | None -> E_auto
        | Some s -> (
          match List.assoc_opt s engines with
          | Some e -> e
          | None -> reject "bad_field" "unknown engine %S" s)
      in
      let matrix () = parse_matrix_ref ~max_n ~engine j in
      let rhs name =
        match Wire.member name j with
        | Some v -> int_array name v
        | None -> reject "missing_field" "op %S needs %S" opname name
      in
      let op =
        match opname with
        | "ping" -> Ping
        | "metrics" -> Metrics
        | "solve" -> Solve { m = matrix (); b = rhs "b" }
        | "batch" ->
          let m = matrix () in
          let bs =
            match Option.bind (Wire.member "bs" j) Wire.to_list with
            | Some rows ->
              Array.of_list (List.map (fun r -> int_array "bs" r) rows)
            | None -> reject "missing_field" "op \"batch\" needs \"bs\""
          in
          if Array.length bs = 0 then
            reject "bad_dimensions" "\"bs\" must carry at least one RHS";
          Batch { m; bs }
        | "det" -> Det (matrix ())
        | "rank" -> Rank (matrix ())
        | "inverse" -> Inverse (matrix ())
        | other -> reject "unknown_op" "unknown op %S" other
      in
      let pos_opt name =
        match Wire.member name j with
        | None -> None
        | Some v ->
          let i = int_field name v in
          if i < 1 then reject "bad_field" "%S must be >= 1, got %d" name i;
          Some i
      in
      {
        id;
        op;
        engine;
        block_factor = pos_opt "block_factor";
        deadline_ms = pos_opt "deadline_ms";
      }
    | Ok _ -> reject "not_an_object" "request must be a JSON object"
  with
  | req -> Ok req
  | exception Rejected r -> Error r

(* best-effort id extraction for bad_request replies (the request may have
   failed validation after carrying a perfectly good id) *)
let salvage_id line =
  match Wire.parse line with
  | Ok j -> Option.bind (Wire.member "id" j) Wire.to_str
  | Error _ -> None

(* ---- rendering ---- *)

let matrix_fields = function
  | Keyed k -> [ ("key", Wire.Str k) ]
  | Inline { n; entries; key } ->
    [ ("n", Wire.Int n);
      ("a", Wire.Arr (Array.to_list (Array.map (fun e -> Wire.Int e) entries)))
    ]
    @ (match key with Some k -> [ ("key", Wire.Str k) ] | None -> [])

let int_arr xs = Wire.Arr (Array.to_list (Array.map (fun x -> Wire.Int x) xs))

let render_request r =
  let base =
    match r.id with Some id -> [ ("id", Wire.Str id) ] | None -> []
  in
  let opf =
    match r.op with
    | Ping -> [ ("op", Wire.Str "ping") ]
    | Metrics -> [ ("op", Wire.Str "metrics") ]
    | Solve { m; b } ->
      (("op", Wire.Str "solve") :: matrix_fields m) @ [ ("b", int_arr b) ]
    | Batch { m; bs } ->
      (("op", Wire.Str "batch") :: matrix_fields m)
      @ [ ("bs", Wire.Arr (Array.to_list (Array.map int_arr bs))) ]
    | Det m -> ("op", Wire.Str "det") :: matrix_fields m
    | Rank m -> ("op", Wire.Str "rank") :: matrix_fields m
    | Inverse m -> ("op", Wire.Str "inverse") :: matrix_fields m
  in
  let opt name = function Some v -> [ (name, Wire.Int v) ] | None -> [] in
  let eng =
    match r.engine with E_auto -> [] | e -> [ ("engine", Wire.Str (engine_name e)) ]
  in
  Wire.render
    (Wire.Obj
       (base @ opf @ eng
       @ opt "block_factor" r.block_factor
       @ opt "deadline_ms" r.deadline_ms))

let id_field = function
  | Some id -> [ ("id", Wire.Str id) ]
  | None -> [ ("id", Wire.Null) ]

let ok ~id fields =
  Wire.render (Wire.Obj (id_field id @ (("status", Wire.Str "ok") :: fields)))

let error ~id ~kernel e =
  (* error_to_json is already a JSON object; keep the one taxonomy by
     parsing it back into the reply rather than re-encoding by hand *)
  let kernel w = Wire.render (kernel w) in
  let payload =
    match Wire.parse (Kp_robust.Outcome.error_to_json ~kernel e) with
    | Ok v -> v
    | Error _ -> Wire.Str (Kp_robust.Outcome.error_to_string e)
  in
  Wire.render
    (Wire.Obj
       (id_field id
       @ [ ("status", Wire.Str "error"); ("error", payload) ]))

let bad_request ~id { code; detail } =
  Wire.render
    (Wire.Obj
       (id_field id
       @ [
           ("status", Wire.Str "bad_request");
           ("code", Wire.Str code);
           ("detail", Wire.Str detail);
         ]))

let response_id j = Option.bind (Wire.member "id" j) Wire.to_str
let response_status j = Option.bind (Wire.member "status" j) Wire.to_str
