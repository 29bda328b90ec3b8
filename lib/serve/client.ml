type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* the daemon answers each non-blank line once: refuse a line it would
   not answer (the read below would block forever) or answer twice *)
let check_line line =
  let len = String.length line in
  let blank = len = 0 || (len = 1 && line.[0] = '\r') in
  if blank || String.contains line '\n' then
    invalid_arg "Client.request_line: not exactly one non-blank line"

let request_line t line =
  check_line line;
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc
  with
  | () -> input_line t.ic
  | exception (Sys_error _ as e) -> (
    (* the server may answer before it has read the whole line (an
       oversized request) and close mid-write: its reply is queued *)
    match input_line t.ic with
    | reply -> reply
    | exception End_of_file -> raise e)

let request t req =
  let reply = request_line t (Protocol.render_request req) in
  match Wire.parse reply with
  | Ok v -> v
  | Error m -> failwith (Printf.sprintf "unparseable reply %S: %s" reply m)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
