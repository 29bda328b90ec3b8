(** Blocking Unix-domain-socket client for {!Server} — the test suites'
    and the E15 load generator's side of the wire.

    One request line out, one response line back ({!Protocol}).  A
    client is a connected socket plus buffered channels; it is
    single-owner (one thread per client — the load generator opens one
    client per simulated caller). *)

type t

val connect : string -> t
(** Connect to the daemon at this socket path.
    @raise Unix.Unix_error if nobody is listening. *)

val request_line : t -> string -> string
(** Send one raw line (newline appended), read one reply line.  The
    daemon skips a blank line without a reply, so a line that is empty
    once one trailing ['\r'] is dropped is refused, and so is a line
    containing ['\n'] (it would draw two replies).
    @raise Invalid_argument on such a line, before anything is sent.
    @raise End_of_file if the server closed the connection. *)

val request : t -> Protocol.request -> Wire.t
(** {!Protocol.render_request} out, parsed reply back.
    @raise Failure if the reply is not valid JSON (a server bug). *)

val close : t -> unit
