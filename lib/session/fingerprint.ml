type content = Hashed of int64 | Keyed of string

(* schema v2: the [tag] field (the preconditioner kind since PR 10) is part
   of the identity, so verdicts cached under one kind can never answer a
   lookup under another *)
type t = {
  field : string;
  rows : int;
  cols : int;
  tag : string;
  content : content;
}

(* 64-bit FNV-1a: cheap, seedless, good avalanche for short strings *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fold_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  (* entry separator, so ["ab";"c"] and ["a";"bc"] hash apart *)
  Int64.mul (Int64.logxor !h 0x1fL) fnv_prime

let of_entries ?(tag = "") ~field ~rows ~cols ~to_string entries =
  let h = ref fnv_offset in
  Array.iter (fun e -> h := fold_string !h (to_string e)) entries;
  { field; rows; cols; tag; content = Hashed !h }

(* residues of a word-sized field fold whole, one FNV-1a step each, in a
   native int (63 bits): no rendering and no allocation per entry *)
let of_ints ?(tag = "") ~field ~rows ~cols (entries : int array) =
  let h = ref (Int64.to_int fnv_offset) and prime = Int64.to_int fnv_prime in
  for k = 0 to Array.length entries - 1 do
    h := (!h lxor entries.(k)) * prime
  done;
  { field; rows; cols; tag; content = Hashed (Int64.of_int !h) }

let of_key ?(tag = "") ~field ~rows ~cols key =
  { field; rows; cols; tag; content = Keyed key }

let equal a b =
  a.rows = b.rows && a.cols = b.cols && String.equal a.field b.field
  && String.equal a.tag b.tag
  && match (a.content, b.content) with
     | Hashed x, Hashed y -> Int64.equal x y
     | Keyed x, Keyed y -> String.equal x y
     | Hashed _, Keyed _ | Keyed _, Hashed _ -> false

let hash t =
  Hashtbl.hash
    ( t.field, t.rows, t.cols, t.tag,
      match t.content with Hashed h -> Int64.to_string h | Keyed k -> k )

let to_string t =
  Printf.sprintf "v2:%s:%dx%d:pc=%s:%s" t.field t.rows t.cols t.tag
    (match t.content with
    | Hashed h -> Printf.sprintf "fnv1a64=%016Lx" h
    | Keyed k -> "key=" ^ k)

let tag t = t.tag
