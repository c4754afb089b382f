(* Daemon harness and the benchmark's instrumented session client.

   The daemon is the built [regionsel_daemon] binary, exec'd with the
   default config on a fresh socket and state dir.  Every daemon this
   module starts is registered so that {!kill_all} (wired to every exit
   path) can stop it. *)

module Proto = Regionsel_serve.Proto
module Client = Regionsel_serve.Client
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Branch_stream = Regionsel_engine.Branch_stream

type t = { pid : int; socket : string; state_dir : string; mutable running : bool }

let started : t list ref = ref []

(* Wait for the daemon to exit, killing it if it has not within ten
   seconds. *)
let reap d =
  if d.running then begin
    d.running <- false;
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then (
          try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Unix.sleepf 0.005;
        wait ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let kill d =
  if d.running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d
  end

let kill_all () = List.iter kill !started

(* Exec the daemon and poll its socket until a [ping] round trip
   succeeds. *)
let start ~exe ~root =
  let dir = Host.fresh_dir ~root "daemon" in
  let socket = Filename.concat dir "d.sock" and state_dir = Filename.concat dir "state" in
  (* The daemon's stdout goes to our stderr: our stdout ends with the
     result line. *)
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--state-dir"; state_dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket; state_dir; running = true } in
  started := d :: !started;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Client.ctrl ~socket_path:socket "ping" with
    | Ok _ -> ()
    | Error (code, detail) ->
      failwith (Printf.sprintf "daemon ping rejected: %s %s" (Proto.reject_code_to_string code) detail)
    | exception (Unix.Unix_error _ | Proto.Protocol_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        d.running <- false;
        failwith "daemon exited before its socket was ready");
      if Unix.gettimeofday () > deadline then failwith "daemon socket never became ready";
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  d

let peak_rss_mb d = Host.vm_hwm_mb (string_of_int d.pid)

(* Ask for a clean shutdown; fall back to SIGKILL. *)
let stop d =
  if d.running then begin
    (match Client.ctrl ~socket_path:d.socket "shutdown" with
    | Ok _ -> ()
    | Error _ | (exception _) -> ( try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
    reap d
  end

(* ---- One session, timed from the client's side ---- *)

type timing = {
  mutable hello_ns : int;  (** Hello written to Welcome read. *)
  mutable send_ns : int;  (** Encoding and writing every Events frame. *)
  mutable write_ns : int;  (** Of [send_ns], time blocked in socket writes. *)
  mutable fin_ns : int;  (** Fin written to Result read. *)
}

let new_timing () = { hello_ns = 0; send_ns = 0; write_ns = 0; fin_ns = 0 }
let now = Spans.now_ns

let expect fd =
  match Proto.read_msg fd with
  | Some m -> m
  | None -> raise (Proto.Protocol_error "server closed the connection mid-session")

(* The same exchange as [Client.stream_events] — Hello, Events from the
   server's [resume_step], Fin, Result — with each phase timed and
   wrapped in a span.  Used only by the per-layer ledger, which reports
   these phases; a resumed session's Hello-to-Welcome time is the resume
   latency.  The workloads themselves go through [Client.stream_events]. *)
let stream ~spans ~job ~timing ~socket ~tenant (c : Cells.t) events =
  let program = Cells.program c in
  Client.with_connection ~socket_path:socket (fun fd ->
      let t0 = now () in
      let reply =
        Spans.with_span spans ~job "client.hello" (fun () ->
            Proto.write_msg fd
              (Proto.Hello
                 {
                   h_tenant = tenant;
                   h_bench = c.Cells.bench;
                   h_policy = c.Cells.policy_name;
                   h_seed = c.Cells.seed;
                   h_max_steps = c.Cells.budget;
                 });
            expect fd)
      in
      let t1 = now () in
      timing.hello_ns <- timing.hello_ns + (t1 - t0);
      match reply with
      | Proto.Reject { code; detail } -> raise (Client.Rejected { code; detail })
      | Proto.Welcome { resume_step; _ } ->
        let total = Branch_stream.length events in
        Spans.with_span spans ~job "client.send" (fun () ->
            let pos = ref (min resume_step total) in
            while !pos < total do
              let len = min 4096 (total - !pos) in
              let frame =
                Spans.with_span spans ~job "event_log.encode_batch" (fun () ->
                    Proto.encode (Proto.Events (Event_log.encode_batch ~program events ~pos:!pos ~len)))
              in
              let w0 = now () in
              Spans.with_span spans ~job "client.write" (fun () ->
                  Regionsel_persist.Io.write_all fd frame ~pos:0 ~len:(Bytes.length frame));
              timing.write_ns <- timing.write_ns + (now () - w0);
              pos := !pos + len
            done);
        let t2 = now () in
        timing.send_ns <- timing.send_ns + (t2 - t1);
        let result =
          Spans.with_span spans ~job "client.fin_result" (fun () ->
              Proto.write_msg fd Proto.Fin;
              expect fd)
        in
        timing.fin_ns <- timing.fin_ns + (now () - t2);
        (match result with
        | Proto.Result json -> json
        | Proto.Reject { code; detail } -> raise (Client.Rejected { code; detail })
        | _ -> raise (Proto.Protocol_error "expected a Result frame"))
      | _ -> raise (Proto.Protocol_error "expected a Welcome or Reject frame"))

(* Wait until the daemon has snapshotted a disconnected session: the
   snapshot file is written atomically, after which the tenant is free
   to reattach. *)
let await_snapshot d ~tenant (c : Cells.t) =
  let path =
    Persist.session_file ~dir:d.state_dir ~tenant ~bench:c.Cells.bench
      ~policy:c.Cells.policy_name ~seed:c.Cells.seed
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) do
    if Unix.gettimeofday () > deadline then failwith ("no session snapshot for " ^ tenant);
    Unix.sleepf 0.0005
  done
