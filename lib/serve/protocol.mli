(** The `kp serve` request/response protocol.

    One JSON object per line in each direction; one trailing ['\r'] is
    dropped from a request line, and a line that is then empty is a
    blank line, skipped without a reply.  Requests:

    {v
    {"id":"r1","op":"ping"}
    {"id":"r2","op":"solve","n":3,"a":[e00,...,e22],"b":[b0,b1,b2],
     "key":"m1","engine":"block","block_factor":2,"deadline_ms":250}
    {"id":"r3","op":"solve","key":"m1","b":[...]}          // matrix by key
    {"id":"r4","op":"batch","key":"m1","bs":[[...],[...]]}
    {"id":"r5","op":"det","n":2,"a":[1,2,3,4]}
    {"id":"r6","op":"rank","key":"m1"}
    {"id":"r7","op":"inverse","key":"m1"}
    {"id":"r8","op":"metrics"}
    v}

    Matrix entries are integers (canonical field residues; the server
    maps them through [F.of_int]).  ["a"] is row-major, length n².
    Supplying ["a"] together with ["key"] registers the matrix under the
    key; a later request carrying only ["key"] refers to it — an unknown
    key is a typed [unknown_key] rejection, never a crash.

    Responses always echo ["id"] and carry a ["status"]:
    ["ok"] (payload per op), ["error"] (an {!Kp_robust.Outcome.error}
    rendered by [error_to_json] under ["error"], including
    ["overloaded"] admission rejections), or ["bad_request"] (a protocol
    fault: malformed JSON, oversized request, dimension mismatch…, with
    machine-readable ["code"] and human ["detail"]).

    ["engine"] is one of ["auto"] (the default), ["block"], ["scalar"]
    or ["dense"]; each names the top rung of its {!Engines} ladder.  The
    same four names are [kp]'s [--engine] values, read from {!engines}.
    A ["dense"] request is admitted only up to n = {!dense_max_n},
    inline or by key; a larger one is [too_large]. *)

type engine = E_auto | E_block | E_scalar | E_dense

val engines : (string * engine) list
(** The engine vocabulary, in one table: the wire's ["engine"] values and
    [kp --engine]'s. *)

val engine_name : engine -> string

type matrix_ref =
  | Inline of { n : int; entries : int array; key : string option }
      (** entries row-major, length n²; [key] registers it *)
  | Keyed of string  (** previously registered *)

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

type reject = { code : string; detail : string }
(** A [bad_request] verdict.  Codes: [malformed_json], [not_an_object],
    [unknown_op], [missing_field], [bad_field], [bad_dimensions],
    [oversized], [too_large]. *)

val dense_max_n : int
(** 64: the largest n the wire admits for ["engine":"dense"].  The
    Theorem-4 reference costs far more per n than the other rungs (a
    dense inverse is n Theorem-4 solves), so one dense request must not
    hold the worker for long. *)

val check_n : max_n:int -> engine -> int -> (unit, reject) result
(** [too_large] unless n ≤ [max_n], and n ≤ {!dense_max_n} for
    {!E_dense}.  [parse_request] applies it to inline matrices; the
    server applies it to keyed ones once it has looked them up. *)

val parse_request : max_n:int -> string -> (request, reject) result
(** Parse and validate one request line.  [max_n] bounds the accepted
    matrix dimension (and with it right-hand-side lengths) as
    {!check_n} does: anything larger is a typed [too_large] rejection,
    applied before any O(n²) work. *)

val render_request : request -> string
(** The client side: one line (no trailing newline). *)

val salvage_id : string -> string option
(** Best-effort ["id"] extraction from a request line that failed
    validation, so the [bad_request] reply can still echo it. *)

(** Response builders — each returns one line (no trailing newline): *)

val ok : id:string option -> (string * Wire.t) list -> string
val error :
  id:string option -> kernel:('k -> Wire.t) -> 'k Kp_robust.Outcome.error ->
  string
(** [kernel] renders a [Singular]'s w, so a client checks A·w = 0 from
    the reply alone. *)

val bad_request : id:string option -> reject -> string

val response_id : Wire.t -> string option
val response_status : Wire.t -> string option
