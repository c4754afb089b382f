(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the call: name, start, end, the enclosing span and the job (cell run,
   round trip or session) it belongs to.  Spans are kept in memory and
   written as Chrome trace_event JSON when the run ends.  One recorder
   per thread: the stack of open spans is what gives each span its
   parent. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** [-1] for a root span. *)
  tid : int;
  t0 : int;  (** Nanoseconds on the monotonic clock. *)
  t1 : int;
}

type t = {
  enabled : bool;
  tid : int;
  mutable next_id : int;
  mutable open_ : int list;
  mutable done_ : span list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Ids are unique per recorder; the thread id keeps them apart once
   recorders are merged. *)
let create ?(tid = 0) enabled = { enabled; tid; next_id = 0; open_ = []; done_ = [] }

let with_span t ~job name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      t.open_ <- List.tl t.open_;
      t.done_ <- { id; name; job; parent; tid = t.tid; t0; t1 } :: t.done_
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.done_

(* A span's duration minus the part of it its children cover: children
   are clipped to the parent and their union is taken, so overlapping
   children are not subtracted twice. *)
let self_ns parent children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max parent.t0 c.t0 and b = min parent.t1 c.t1 in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  let covered = match last with Some (a, b) -> covered + (b - a) | None -> covered in
  parent.t1 - parent.t0 - covered

type summary = { s_name : string; count : int; total_ns : int; self_total_ns : int }

(* Per span name, in first-seen order: call count, total and self time. *)
let summarize spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children (s.tid, s.parent) s)
    spans;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = self_ns s (Hashtbl.find_all children (s.tid, s.id)) in
      match Hashtbl.find_opt acc s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name (1, s.t1 - s.t0, self)
      | Some (c, tot, st) -> Hashtbl.replace acc s.name (c + 1, tot + s.t1 - s.t0, st + self))
    spans;
  List.rev_map
    (fun name ->
      let count, total_ns, self_total_ns = Hashtbl.find acc name in
      { s_name = name; count; total_ns; self_total_ns })
    !order

(* Chrome trace_event "complete" events, microsecond timestamps relative
   to the earliest span. *)
let to_chrome_json spans =
  let base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
        s.name
        (match String.index_opt s.name '.' with Some k -> String.sub s.name 0 k | None -> s.name)
        s.tid
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent s.job)
    spans;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
