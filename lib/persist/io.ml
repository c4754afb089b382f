(* Retry-safe fd I/O shared by every persisted artifact and the daemon's
   socket code.

   [Unix.write] can return short, and under live signal handling (the
   daemon traps SIGTERM for shutdown snapshots) it can also fail with
   EINTR mid-artifact; on a non-blocking fd (the daemon's sockets) it
   fails with EAGAIN when the peer stops draining.  A bare retry loop
   that only handles the short-write case aborts a snapshot save on the
   first signal — the bug this module factors out of [Persist.save_file]
   and [Event_log.write_file]. *)

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.0) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd

let rec wait_writable fd =
  match Unix.select [] [ fd ] [] (-1.0) with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_writable fd

let write_all fd bytes ~pos ~len =
  let rec go pos len =
    if len > 0 then
      match Unix.write fd bytes pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_writable fd;
        go pos len
  in
  go pos len

let rec read fd bytes ~pos ~len =
  match Unix.read fd bytes pos len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd bytes ~pos ~len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    wait_readable fd;
    read fd bytes ~pos ~len

let really_read fd bytes ~pos ~len =
  let rec go pos len = len = 0 || (match read fd bytes ~pos ~len with
    | 0 -> false
    | n -> go (pos + n) (len - n))
  in
  go pos len

let write_atomic ?crash_after_bytes ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match crash_after_bytes with
  | Some n ->
    (* Simulated crash mid-write: a prefix of the temporary is on disk,
       nothing was fsynced, and the rename never happens — the previous
       artifact at [path], if any, is untouched. *)
    write_all fd data ~pos:0 ~len:(min (max n 0) (Bytes.length data));
    Unix.close fd
  | None ->
    (try
       write_all fd data ~pos:0 ~len:(Bytes.length data);
       Unix.fsync fd
     with e ->
       Unix.close fd;
       raise e);
    Unix.close fd;
    Unix.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let data = Bytes.create (in_channel_length ic) in
      really_input ic data 0 (Bytes.length data);
      data)
