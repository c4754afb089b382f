(* The abstract branch-event stream of the paper's substitution table:
   every selection algorithm consumes only (block, taken?, target) plus
   static layout, so the hot loop does not care whether events come from
   the live interpreter or a recording.  Events are delivered through the
   caller's reusable [Interp.step] record — same discipline as the step
   loop itself — so a stream costs no allocation per event. *)

(* In-memory recording: fixed-size chunks under a small spine.  A chunk
   interleaves its events' two slots: slot [2k] packs the dense block id
   with the taken flag, slot [2k + 1] holds the successor address verbatim
   ([Addr.none] on a halt).  Appending fills the tail chunk and never
   copies an event; a full tail gets a fresh chunk (or, after a truncate,
   the one already standing there).  Only the spine, one pointer per
   chunk, ever doubles. *)
let chunk_bits = 12
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* The spine entry of a chunk never allocated, or released. *)
let no_chunk : int array = [||]

(* A replay's position is [first + k / 2]: [slots] is the chunk holding
   it, [first] that chunk's first event, [k] the slot index within it.
   [stop] bounds the slots the reader may load without looking at the
   recording again: the chunk's end or the recording's length when the
   reader last looked, whichever came first.  A pull below [stop] is one
   compare and two loads; at [stop] it refills from the spine. *)
type reader = {
  mutable slots : int array;
  mutable first : int;
  mutable k : int;
  mutable stop : int;
}

type events = {
  mutable spine : int array array;
  mutable tail : int array;  (* the chunk the next append writes, unless at a chunk edge *)
  mutable len : int;
  mutable released : int;  (* every event below is released; a multiple of [chunk_len] *)
  mutable readers : reader Weak.t;
      (* The live replays: a truncate or release can cut under a reader's
         [stop], so each resets every reader to refill on its next pull. *)
  mutable n_readers : int;
}

type t = Interp.step -> bool

let recorder () =
  {
    spine = [||];
    tail = no_chunk;
    len = 0;
    released = 0;
    readers = Weak.create 1;
    n_readers = 0;
  }

(* The chunk for index [c], allocated unless a truncate left one there. *)
let chunk_for_append ev c =
  if c >= Array.length ev.spine then begin
    let spine = Array.make (max 4 (2 * Array.length ev.spine)) no_chunk in
    Array.blit ev.spine 0 spine 0 (Array.length ev.spine);
    ev.spine <- spine
  end;
  let ch = Array.unsafe_get ev.spine c in
  if ch != no_chunk then ch
  else begin
    let ch = Array.make (2 * chunk_len) 0 in
    ev.spine.(c) <- ch;
    ch
  end

let append_event ev ~block_id ~taken ~next =
  if block_id < 0 then invalid_arg "Branch_stream.append_event: negative block id";
  let i = ev.len in
  let j = i land chunk_mask in
  if j = 0 then ev.tail <- chunk_for_append ev (i lsr chunk_bits);
  let tail = ev.tail in
  Array.unsafe_set tail (2 * j) ((block_id lsl 1) lor Bool.to_int taken);
  Array.unsafe_set tail ((2 * j) + 1) next;
  ev.len <- i + 1

let append ev (s : Interp.step) =
  append_event ev ~block_id:s.Interp.block_id ~taken:s.Interp.taken ~next:s.Interp.next

let length ev = ev.len
let resident ev = ev.len - ev.released

(* Force every live reader back to the spine on its next pull, and let go
   of the chunk it holds. *)
let reset_readers ev =
  for r = 0 to ev.n_readers - 1 do
    match Weak.get ev.readers r with
    | Some rd ->
      rd.stop <- 0;
      rd.slots <- no_chunk
    | None -> ()
  done

let add_reader ev rd =
  if ev.n_readers = Weak.length ev.readers then begin
    let live = List.filter_map (Weak.get ev.readers) (List.init ev.n_readers Fun.id) in
    let n = List.length live in
    let readers = Weak.create (max 1 (2 * n)) in
    List.iteri (fun r rd -> Weak.set readers r (Some rd)) live;
    ev.readers <- readers;
    ev.n_readers <- n
  end;
  Weak.set ev.readers ev.n_readers (Some rd);
  ev.n_readers <- ev.n_readers + 1

let truncate ev n =
  if n < ev.released || n > ev.len then
    invalid_arg "Branch_stream.truncate: length outside the recording";
  if n < ev.len then begin
    ev.len <- n;
    (* The chunks past the cut stay allocated for the appends that refill
       them; the next append writes the chunk holding index [n]. *)
    if n land chunk_mask <> 0 then ev.tail <- ev.spine.(n lsr chunk_bits);
    reset_readers ev
  end

let release ev ~upto =
  if upto < 0 || upto > ev.len then
    invalid_arg "Branch_stream.release: index outside the recording";
  let upto = upto land lnot chunk_mask in
  if upto > ev.released then begin
    Array.fill ev.spine (ev.released lsr chunk_bits)
      ((upto - ev.released) lsr chunk_bits)
      no_chunk;
    ev.released <- upto;
    reset_readers ev
  end

let check_index ev i what =
  if i < ev.released || i >= ev.len then
    invalid_arg
      (Printf.sprintf "Branch_stream.%s: index %d outside the readable events [%d, %d)" what i
         ev.released ev.len)

let get_packed ev i what =
  check_index ev i what;
  ev.spine.(i lsr chunk_bits).(2 * (i land chunk_mask))

let get_block_id ev i = get_packed ev i "get_block_id" lsr 1
let get_taken ev i = get_packed ev i "get_taken" land 1 = 1

let get_next ev i =
  check_index ev i "get_next";
  ev.spine.(i lsr chunk_bits).((2 * (i land chunk_mask)) + 1)

let iter_range ev ~pos ~len f =
  if len < 0 || pos < 0 || pos > ev.len - len || (len > 0 && pos < ev.released) then
    invalid_arg "Branch_stream.iter_range: range outside the readable events";
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let first = !i land chunk_mask in
    let count = min (chunk_len - first) (stop - !i) in
    f ev.spine.(!i lsr chunk_bits) ~first ~count;
    i := !i + count
  done

let iter f ev =
  iter_range ev ~pos:0 ~len:ev.len (fun slots ~first ~count ->
      for k = first to first + count - 1 do
        let p = slots.(2 * k) in
        f ~block_id:(p lsr 1) ~taken:(p land 1 = 1) ~next:slots.((2 * k) + 1)
      done)

let equal a b =
  a.len = b.len
  &&
  let rec go i =
    i >= a.len
    || get_packed a i "equal" = get_packed b i "equal"
       && get_next a i = get_next b i
       && go (i + 1)
  in
  go 0

let of_interp interp : t = fun s -> Interp.step_into interp s

(* The reader's slow path, at [stop]: past the end the stream reports a
   halt (and the reader stays put, so appends resume it); otherwise it
   re-reads its chunk from the spine, which raises on a released one. *)
let refill ev rd s =
  let i = rd.first + (rd.k / 2) in
  if i >= ev.len then false
  else begin
    if i < ev.released then
      invalid_arg (Printf.sprintf "Branch_stream: replay of released event %d" i);
    let first = i land lnot chunk_mask in
    let slots = ev.spine.(i lsr chunk_bits) in
    let k = 2 * (i - first) in
    rd.slots <- slots;
    rd.first <- first;
    rd.stop <- 2 * (min chunk_len (ev.len - first));
    let p = Array.unsafe_get slots k in
    s.Interp.block_id <- p lsr 1;
    s.Interp.taken <- p land 1 = 1;
    s.Interp.next <- Array.unsafe_get slots (k + 1);
    rd.k <- k + 2;
    true
  end

(* Replaying holds one reader, registered with the recording; past the
   end the stream reports a halt, exactly like an interpreter whose
   program finished. *)
let of_events ev : t =
  let rd = { slots = no_chunk; first = 0; k = 0; stop = 0 } in
  add_reader ev rd;
  fun s ->
    let k = rd.k in
    if k < rd.stop then begin
      let slots = rd.slots in
      let p = Array.unsafe_get slots k in
      s.Interp.block_id <- p lsr 1;
      s.Interp.taken <- p land 1 = 1;
      s.Interp.next <- Array.unsafe_get slots (k + 1);
      rd.k <- k + 2;
      true
    end
    else refill ev rd s

let next_into (t : t) s = t s
