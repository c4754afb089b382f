(* The branch-stream seam: a run consuming a recording of itself must be
   bit-identical to the live run — the paper's substitution argument made
   executable.  Checked over the full (workload x policy) matrix, clean
   and under mixed faults, plus the on-disk codec's round-trip and
   corruption behaviour. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Interp = Regionsel_engine.Interp
module Params = Regionsel_engine.Params
module Run_metrics = Regionsel_metrics.Run_metrics
module Policies = Regionsel_core.Policies
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Addr = Regionsel_isa.Addr
module Program = Regionsel_isa.Program
module Block = Regionsel_isa.Block
module Terminator = Regionsel_isa.Terminator
module Bitbuf = Regionsel_core.Bitbuf
module Wire = Regionsel_persist.Wire
open Fixtures

let budget (spec : Spec.t) = min spec.Spec.default_steps 30_000

let tasks =
  List.concat_map
    (fun (spec : Spec.t) -> List.map (fun (p, _) -> spec, p) Policies.all)
    Suite.all

(* Live run recording its stream, then a replayed run over the recording
   after a round trip through the REVL codec: the two metric JSONs (fixed
   field order, lossless floats) must be byte-identical.  [to_json]
   equality is the strongest cheap comparison we have — it covers every
   exported metric. *)
let live_vs_replay ?params () =
  List.iter
    (fun ((spec : Spec.t), pname) ->
      let policy = Option.get (Policies.find pname) in
      let max_steps = budget spec in
      let image = Spec.image spec in
      let events = Branch_stream.recorder () in
      let live =
        Simulator.run ?params ~seed:1L ~record:events ~policy ~max_steps image
      in
      let program = image.Image.program in
      let decoded =
        Event_log.decode (Event_log.encode ~program ~seed:1L events) ~program ~seed:1L
      in
      let replayed = Simulator.run ?params ~seed:1L ~replay:decoded ~policy ~max_steps image in
      let lj = Run_metrics.to_json (Run_metrics.of_result live) in
      let rj = Run_metrics.to_json (Run_metrics.of_result replayed) in
      if lj <> rj then
        Alcotest.failf "live vs replay diverged for %s under %s:\nlive:   %s\nreplay: %s"
          spec.Spec.name pname lj rj;
      (* Recording must also be pure observation: the recorded run's
         metrics equal an unrecorded run's. *)
      let plain = Simulator.run ?params ~seed:1L ~policy ~max_steps image in
      Alcotest.(check string)
        (Printf.sprintf "recording is pure observation (%s/%s)" spec.Spec.name pname)
        (Run_metrics.to_json (Run_metrics.of_result plain))
        lj)
    tasks

let matrix_clean () = live_vs_replay ()

let matrix_mixed_faults () =
  let faults = Params.fault_profile "mixed" in
  live_vs_replay ~params:{ Params.default with Params.faults } ()

(* The in-memory recorder API itself. *)
let recorder_basics () =
  let ev = Branch_stream.recorder () in
  check_int "empty" 0 (Branch_stream.length ev);
  (* Push enough events to force several growths past the initial array. *)
  for i = 0 to 4999 do
    Branch_stream.append_event ev ~block_id:(i mod 300) ~taken:(i mod 3 = 0)
      ~next:(if i mod 7 = 0 then Addr.none else i * 2)
  done;
  check_int "length" 5000 (Branch_stream.length ev);
  for i = 0 to 4999 do
    assert (Branch_stream.get_block_id ev i = i mod 300);
    assert (Branch_stream.get_taken ev i = (i mod 3 = 0));
    assert (Branch_stream.get_next ev i = if i mod 7 = 0 then Addr.none else i * 2)
  done;
  check_true "equal to itself" (Branch_stream.equal ev ev);
  let other = Branch_stream.recorder () in
  Branch_stream.iter
    (fun ~block_id ~taken ~next -> Branch_stream.append_event other ~block_id ~taken ~next)
    ev;
  check_true "iter rebuilds an equal recording" (Branch_stream.equal ev other);
  Branch_stream.append_event other ~block_id:1 ~taken:false ~next:Addr.none;
  check_true "longer recording differs" (not (Branch_stream.equal ev other));
  check_true "negative block id rejected"
    (try
       Branch_stream.append_event ev ~block_id:(-1) ~taken:false ~next:0;
       false
     with Invalid_argument _ -> true)

let recorder_truncate () =
  let ev = Branch_stream.recorder () in
  for i = 0 to 99 do
    Branch_stream.append_event ev ~block_id:i ~taken:(i mod 2 = 0) ~next:(i + 1)
  done;
  check_int "appended" 100 (Branch_stream.length ev);
  Branch_stream.truncate ev 40;
  check_int "truncated" 40 (Branch_stream.length ev);
  Branch_stream.append_event ev ~block_id:7 ~taken:true ~next:Addr.none;
  check_int "append lands after the cut" 7 (Branch_stream.get_block_id ev 40);
  check_int "earlier events kept" 39 (Branch_stream.get_block_id ev 39);
  let rejects n = try Branch_stream.truncate ev n; false with Invalid_argument _ -> true in
  check_true "cannot truncate past the end" (rejects 42);
  check_true "cannot truncate to a negative length" (rejects (-1))

(* The chunked store against a model: a map from index to event, a
   length, and a released mark that rises to whole chunks.  Random
   appends, truncates, releases, reads and replay pulls must agree with
   it, reads of released indices must raise, and lengths cross chunk
   edges (4095, 4096, 4097 and several chunks).  Every appended event
   carries a fresh serial, so a read of a slot left over from before a
   truncate shows. *)
type store_op =
  | Append of int
  | Truncate of int  (* permille of the way from the released mark to the end; outside 0-1000 is invalid *)
  | Release of int  (* permille of the length *)
  | Pull of int * int  (* reader, pulls *)
  | Get of int  (* permille of the length *)
  | Walk of int * int  (* start, length: permille of the length *)
  | Fresh of int  (* a new replay in this reader slot *)

let show_op = function
  | Append n -> Printf.sprintf "Append %d" n
  | Truncate f -> Printf.sprintf "Truncate %d" f
  | Release f -> Printf.sprintf "Release %d" f
  | Pull (r, n) -> Printf.sprintf "Pull (%d, %d)" r n
  | Get f -> Printf.sprintf "Get %d" f
  | Walk (f, g) -> Printf.sprintf "Walk (%d, %d)" f g
  | Fresh r -> Printf.sprintf "Fresh %d" r

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let run_store_ops ops =
  let chunk = Branch_stream.chunk_len in
  let ev = Branch_stream.recorder () in
  let model = Hashtbl.create 1024 and len = ref 0 and released = ref 0 and serial = ref 0 in
  let readers = Array.init 2 (fun _ -> (Branch_stream.of_events ev, ref 0)) in
  let st = Interp.make_step () in
  let ok = ref true in
  let expect what b =
    if not b then begin
      ok := false;
      Printf.printf "store model: %s disagrees\n" what
    end
  in
  let frac f n = n * f / 1000 in
  let readable i = i >= !released && i < !len in
  let apply op =
    match op with
    | Append n ->
      for _ = 1 to n do
        incr serial;
        let e = (!serial mod 1000, !serial land 1 = 1, if !serial mod 13 = 0 then Addr.none else 2 * !serial) in
        let block_id, taken, next = e in
        Branch_stream.append_event ev ~block_id ~taken ~next;
        Hashtbl.replace model !len e;
        incr len
      done
    | Truncate f ->
      let n = if f < 0 then !released - 1 else !released + frac f (!len - !released) + if f > 1000 then 1 else 0 in
      if n < !released || n > !len then expect "truncate outside" (raises (fun () -> Branch_stream.truncate ev n))
      else begin
        Branch_stream.truncate ev n;
        len := n
      end
    | Release f ->
      let upto = frac f !len + if f > 1000 then 1 else 0 in
      if upto > !len then expect "release past the end" (raises (fun () -> Branch_stream.release ev ~upto))
      else begin
        Branch_stream.release ev ~upto;
        released := max !released (upto / chunk * chunk)
      end
    | Pull (r, n) ->
      let stream, pos = readers.(r) in
      let rec go k =
        if k > 0 then
          if !pos >= !len then expect "pull at the end" (not (Branch_stream.next_into stream st))
          else if !pos < !released then
            expect "pull of a released event" (raises (fun () -> Branch_stream.next_into stream st))
          else begin
            let got = Branch_stream.next_into stream st in
            let b, t, x = Hashtbl.find model !pos in
            expect "pulled event"
              (got && st.Interp.block_id = b && st.Interp.taken = t && st.Interp.next = x);
            incr pos;
            go (k - 1)
          end
      in
      go n
    | Get f ->
      let i = frac f (!len + 10) - 5 in
      if readable i then begin
        let b, t, x = Hashtbl.find model i in
        expect "get"
          (Branch_stream.get_block_id ev i = b
          && Branch_stream.get_taken ev i = t
          && Branch_stream.get_next ev i = x)
      end
      else
        expect "get of an unreadable index"
          (raises (fun () -> Branch_stream.get_block_id ev i)
          && raises (fun () -> Branch_stream.get_taken ev i)
          && raises (fun () -> Branch_stream.get_next ev i))
    | Walk (f, g) ->
      let pos = frac f !len and n = frac g !len in
      let walk () =
        let seen = ref [] in
        Branch_stream.iter_range ev ~pos ~len:n (fun slots ~first ~count ->
            expect "walk stays in one chunk" (first >= 0 && count > 0 && first + count <= chunk);
            for k = first to first + count - 1 do
              seen := (slots.(2 * k), slots.((2 * k) + 1)) :: !seen
            done);
        List.rev !seen
      in
      if n > 0 && (pos < !released || pos + n > !len) then expect "walk of unreadable events" (raises walk)
      else
        expect "walk"
          (walk ()
          = List.init n (fun k ->
                let b, t, x = Hashtbl.find model (pos + k) in
                ((b lsl 1) lor Bool.to_int t, x)))
    | Fresh r -> readers.(r) <- (Branch_stream.of_events ev, ref 0)
  in
  List.iter
    (fun op ->
      if !ok then begin
        apply op;
        if not !ok then Printf.printf "  after %s\n" (show_op op);
        expect "length" (Branch_stream.length ev = !len);
        expect "resident" (Branch_stream.resident ev = !len - !released)
      end)
    ops;
  !ok

let store_op_gen =
  let open QCheck.Gen in
  let count = oneof [ int_range 0 300; oneofl [ 4095; 4096; 4097; 8192; (3 * 4096) + 5 ] ] in
  frequency
    [
      (4, map (fun n -> Append n) count);
      (2, map (fun f -> Truncate f) (int_range (-50) 1050));
      (1, map (fun f -> Release f) (int_range 0 1050));
      (4, map2 (fun r n -> Pull (r, n)) (int_range 0 1) count);
      (2, map (fun f -> Get f) (int_range 0 1000));
      (2, map2 (fun f g -> Walk (f, g)) (int_range 0 1000) (int_range 0 1000));
      (1, map (fun r -> Fresh r) (int_range 0 1));
    ]

let qcheck_store_model =
  QCheck.Test.make ~name:"chunked store agrees with a list model" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) store_op_gen))
    run_store_ops

(* The edges the random schedule may miss, spelled out. *)
let store_model_edges () =
  let scenario what ops = check_true what (run_store_ops ops) in
  scenario "lengths at the chunk edge"
    [ Append 4095; Pull (0, 5000); Append 1; Pull (0, 2); Append 1; Pull (0, 2); Get 999; Walk (0, 1000) ];
  scenario "append after a truncate into a chunk the replay has read"
    [ Append 5000; Pull (0, 4500); Truncate 840; Pull (0, 10); Append 2000; Pull (0, 3000);
      Pull (1, 7000) ];
  scenario "truncate above a replay's position in its chunk, then append"
    [ Append 6000; Pull (0, 4200); Truncate 900; Pull (0, 1000); Append 100; Pull (0, 2000) ];
  scenario "truncate under a replay's position, then refill past it"
    [ Append 6000; Pull (0, 5500); Truncate 500; Pull (0, 1); Append 5000; Pull (0, 6000) ];
  scenario "release under a replay mid-chunk"
    [ Append 9000; Pull (0, 100); Pull (1, 8500); Release 1000; Pull (0, 1); Pull (1, 600);
      Fresh 0; Pull (0, 1); Get 10; Walk (0, 500); Walk (950, 50) ];
  scenario "truncate below the released mark is refused"
    [ Append 10000; Release 900; Truncate (-1); Truncate 0; Append 4097; Pull (0, 1) ]

(* [of_events] delivers exactly the recorded events then reports a halt,
   and [of_interp] over a fresh interpreter reproduces the recording. *)
let stream_producers_agree () =
  let image = figure2 ~iters:500 () in
  let interp = Interp.create image ~seed:7L in
  let ev = Branch_stream.recorder () in
  let s = Interp.make_step () in
  let live = Branch_stream.of_interp interp in
  let n = ref 0 in
  while Branch_stream.next_into live s && !n < 100_000 do
    Branch_stream.append ev s;
    incr n
  done;
  check_true "program halted" (!n < 100_000);
  let replay = Branch_stream.of_events ev in
  let interp2 = Interp.create image ~seed:7L in
  let live2 = Branch_stream.of_interp interp2 in
  let a = Interp.make_step () and b = Interp.make_step () in
  let steps = ref 0 in
  let rec loop () =
    let ra = Branch_stream.next_into replay a in
    let rb = Branch_stream.next_into live2 b in
    check_true "streams end together" (ra = rb);
    if ra then begin
      incr steps;
      check_int "block id" b.Interp.block_id a.Interp.block_id;
      check_true "taken" (a.Interp.taken = b.Interp.taken);
      check_true "next" (Addr.equal a.Interp.next b.Interp.next);
      loop ()
    end
  in
  loop ();
  check_int "replay delivered every event" (Branch_stream.length ev) !steps

(* --- Event_log codec ------------------------------------------------ *)

let record_of (spec : Spec.t) pname =
  let policy = Option.get (Policies.find pname) in
  let events = Branch_stream.recorder () in
  ignore
    (Simulator.run ~seed:1L ~record:events ~policy ~max_steps:(budget spec)
       (Spec.image spec));
  events

let codec_round_trip () =
  List.iter
    (fun bench ->
      let spec = Option.get (Suite.find bench) in
      let program = (Spec.image spec).Image.program in
      let events = record_of spec "net" in
      let t0 = Unix.gettimeofday () in
  let bytes = Event_log.encode ~program ~seed:1L events in
  Printf.printf "encode %.3f\n%!" (Unix.gettimeofday () -. t0);
  let t0 = Unix.gettimeofday () in
  ignore (Event_log.decode bytes ~program ~seed:1L);
  Printf.printf "decode %.3f\n%!" (Unix.gettimeofday () -. t0);
      let decoded = Event_log.decode bytes ~program ~seed:1L in
      check_true
        (Printf.sprintf "round trip (%s, %d events, %d bytes)" bench
           (Branch_stream.length events) (Bytes.length bytes))
        (Branch_stream.equal events decoded))
    [ "gzip"; "twolf"; "mcf" ]

let codec_file_round_trip () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let events = record_of spec "net" in
  let path = Filename.temp_file "regionsel_events" ".revl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let size = Event_log.write_file ~path ~program ~seed:1L events in
      check_int "reported size is the file size" size
        (let ic = open_in_bin path in
         let n = in_channel_length ic in
         close_in ic;
         n);
      let decoded = Event_log.read_file ~path ~program ~seed:1L in
      check_true "file round trip" (Branch_stream.equal events decoded))

(* Minimal field width for every value in [0, max], as the codec computes it. *)
let bits_for max =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  if max = 0 then 1 else go 0 max

(* Past 2^16 blocks an event no longer fits one 32-bit field and is
   written as its three parts; the round trip must not care.  The codec
   only needs block ids and block-start successors, so a synthetic
   recording over a long straight-line program will do. *)
let wide_program n =
  Program.of_blocks_exn ~entry:0
    (List.init n (fun i ->
         Block.make ~start:i ~size:1
           ~term:(if i = n - 1 then Terminator.Halt else Terminator.Fallthrough)))

let codec_round_trip_wide_events () =
  let n = 70_000 in
  let program = wide_program n in
  check_true "event fields wider than 32 bits" (bits_for (n - 1) + 1 + bits_for n > 32);
  let events = Branch_stream.recorder () in
  for i = 0 to 4_999 do
    Branch_stream.append_event events ~block_id:(i * 7919 mod n) ~taken:(i mod 3 = 0)
      ~next:
        (if i mod 11 = 0 then Addr.none
         else (Program.block_of_id program (i * 104_729 mod n)).Block.start)
  done;
  let bytes = Event_log.encode ~program ~seed:1L events in
  check_true "file round trip"
    (Branch_stream.equal events (Event_log.decode bytes ~program ~seed:1L));
  let into = Branch_stream.recorder () in
  check_int "batch round trip" 1001
    (Event_log.decode_batch
       (Event_log.encode_batch ~program events ~pos:3 ~len:1001)
       ~program ~into);
  for i = 0 to 1000 do
    assert (Branch_stream.get_block_id into i = Branch_stream.get_block_id events (i + 3));
    assert (Branch_stream.get_next into i = Branch_stream.get_next events (i + 3))
  done

(* The payload's bit count is a u32, so [max_events] is the largest count
   whose fields fit in 2^32 - 1 bits: one more event would wrap it.  (The
   refusal itself needs a recording of that size, ~280M events on gzip,
   which is out of reach here; the bound it checks against is pinned.) *)
let codec_event_limit_fits_u32 () =
  List.iter
    (fun (name, program) ->
      let n = Program.n_blocks program in
      let width = bits_for (n - 1) + 1 + bits_for n in
      let m = Event_log.max_events program in
      check_true (name ^ ": max_events fits") (m * width <= 0xFFFF_FFFF);
      check_true (name ^ ": one more event does not") ((m + 1) * width > 0xFFFF_FFFF))
    [
      ("gzip", (Spec.image (Option.get (Suite.find "gzip"))).Image.program);
      ("70k blocks", wide_program 70_000);
    ]

let expect_corruption what f =
  match f () with
  | (_ : Branch_stream.events) -> Alcotest.failf "%s: accepted instead of rejected" what
  | exception Persist.Hard_corruption _ -> ()
  | exception e ->
    Alcotest.failf "%s: raised %s instead of Hard_corruption" what (Printexc.to_string e)

let codec_rejects_corruption () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let events = record_of spec "net" in
  let pristine = Event_log.encode ~program ~seed:1L events in
  let flip i bytes =
    let b = Bytes.copy bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    b
  in
  expect_corruption "bad magic" (fun () ->
      Event_log.decode (flip 0 pristine) ~program ~seed:1L);
  expect_corruption "header bit flip" (fun () ->
      Event_log.decode (flip 9 pristine) ~program ~seed:1L);
  expect_corruption "payload bit flip" (fun () ->
      Event_log.decode (flip 40 pristine) ~program ~seed:1L);
  expect_corruption "truncation" (fun () ->
      Event_log.decode (Bytes.sub pristine 0 (Bytes.length pristine / 2)) ~program ~seed:1L);
  expect_corruption "empty file" (fun () ->
      Event_log.decode Bytes.empty ~program ~seed:1L);
  (* Identity pinning: same bytes, wrong seed or wrong program. *)
  expect_corruption "seed mismatch" (fun () ->
      Event_log.decode pristine ~program ~seed:2L);
  let other = (Spec.image (Option.get (Suite.find "twolf"))).Image.program in
  expect_corruption "program mismatch" (fun () ->
      Event_log.decode pristine ~program:other ~seed:1L)

(* Rewrite the event count's high word (bytes 24..27) and re-seal the
   header CRC, so only the count's own range check stands in the way. *)
let with_count_hi bytes hi =
  let b = Bytes.copy bytes in
  Wire.set_u32 b 24 hi;
  Wire.set_u32 b 28 (Wire.crc32 b ~pos:0 ~len:28);
  b

let codec_rejects_count_high_word () =
  let check_program bench pname =
    let spec = Option.get (Suite.find bench) in
    let program = (Spec.image spec).Image.program in
    let pristine = Event_log.encode ~program ~seed:1L (record_of spec pname) in
    let width = bits_for (Program.n_blocks program - 1) + 1 + bits_for (Program.n_blocks program) in
    (* The smallest high word whose count wraps back onto the true bit
       total under a multiplicative size check: hi * 2^32 * width must be
       a multiple of 2^63. *)
    let rec twos w = if w land 1 = 0 then 1 + twos (w lsr 1) else 0 in
    let aliasing = 1 lsl (31 - twos width) in
    List.iter
      (fun hi ->
        expect_corruption (Printf.sprintf "%s: count high word 0x%08X" bench hi) (fun () ->
            Event_log.decode (with_count_hi pristine hi) ~program ~seed:1L))
      [ 0x80000000; 0x40000000; aliasing; 1 ]
  in
  check_program "gzip" "net";
  check_program "twolf" "lei";
  check_program "mcf" "lei"

(* A batch in the wire layout, packed by hand so it can carry a block id
   no encoder would write, with a valid CRC. *)
let forged_batch ~program events ~pos ~len ~bad_at =
  let n_blocks = Program.n_blocks program in
  let kb = bits_for (n_blocks - 1) and kn = bits_for n_blocks in
  let w = Bitbuf.Writer.create () in
  for i = pos to pos + len - 1 do
    let next = Branch_stream.get_next events i in
    Bitbuf.Writer.add_bits w
      (if i = bad_at then n_blocks else Branch_stream.get_block_id events i)
      kb;
    Bitbuf.Writer.add_bit w (Branch_stream.get_taken events i);
    Bitbuf.Writer.add_bits w (if next = Addr.none then 0 else Program.block_id program next + 1) kn
  done;
  let plen = Bitbuf.Writer.byte_length w in
  let b = Bytes.create (8 + plen + 4) in
  Wire.set_u32 b 0 len;
  Wire.set_u32 b 4 (Bitbuf.Writer.length_bits w);
  Bitbuf.Writer.blit w b ~pos:8;
  Wire.set_u32 b (8 + plen) (Wire.crc32 b ~pos:8 ~len:plen);
  b

let decode_batch_failure_leaves_into_unchanged () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let n_blocks = Program.n_blocks program in
  check_true "gzip's block count leaves room for an invalid id"
    (n_blocks < 1 lsl bits_for (n_blocks - 1));
  let events = record_of spec "net" in
  let into = Branch_stream.recorder () in
  let expected = Branch_stream.recorder () in
  let append_range lo hi =
    for i = lo to hi - 1 do
      Branch_stream.append_event expected ~block_id:(Branch_stream.get_block_id events i)
        ~taken:(Branch_stream.get_taken events i) ~next:(Branch_stream.get_next events i)
    done
  in
  check_int "good batch appended" 700
    (Event_log.decode_batch
       (Event_log.encode_batch ~program events ~pos:0 ~len:700)
       ~program ~into);
  append_range 0 700;
  (* 1500 good events (enough to grow [into] past its first array) and a
     bad one at the end: the whole batch must be rolled back. *)
  let bad = forged_batch ~program events ~pos:700 ~len:1501 ~bad_at:2200 in
  (match Event_log.decode_batch bad ~program ~into with
  | (_ : int) -> Alcotest.fail "a batch with an out-of-program block id was accepted"
  | exception Persist.Hard_corruption _ -> ());
  check_int "length unchanged after the rejected batch" 700 (Branch_stream.length into);
  check_true "contents unchanged after the rejected batch" (Branch_stream.equal into expected);
  (* The same events with the id fixed decode fine: the forgery differs
     from a good batch only in that one id. *)
  let fixed = forged_batch ~program events ~pos:700 ~len:1501 ~bad_at:(-1) in
  check_true "the forged layout is the encoder's"
    (Bytes.equal fixed (Event_log.encode_batch ~program events ~pos:700 ~len:1501));
  check_int "next good batch appended" 1501 (Event_log.decode_batch fixed ~program ~into);
  append_range 700 2201;
  check_true "good batch after a rejected one appends exactly" (Branch_stream.equal into expected)

(* The same rollback where the rejected batch crosses a chunk edge, under
   a replay that has already read every event before it. *)
let rollback_across_a_chunk_edge () =
  let spec = Option.get (Suite.find "gzip") in
  let program = (Spec.image spec).Image.program in
  let events = record_of spec "net" in
  let into = Branch_stream.recorder () in
  check_int "prefix appended" 4090
    (Event_log.decode_batch
       (Event_log.encode_batch ~program events ~pos:0 ~len:4090)
       ~program ~into);
  let replay = Branch_stream.of_events into and st = Interp.make_step () in
  let pull_all () =
    let got = ref [] in
    while Branch_stream.next_into replay st do
      got := (st.Interp.block_id, st.Interp.taken, st.Interp.next) :: !got
    done;
    List.rev !got
  in
  let expected lo hi =
    List.init (hi - lo) (fun k ->
        let i = lo + k in
        ( Branch_stream.get_block_id events i,
          Branch_stream.get_taken events i,
          Branch_stream.get_next events i ))
  in
  check_true "replay reads the prefix" (pull_all () = expected 0 4090);
  let bad = forged_batch ~program events ~pos:4090 ~len:100 ~bad_at:(4090 + 49) in
  (match Event_log.decode_batch bad ~program ~into with
  | (_ : int) -> Alcotest.fail "a batch with an out-of-program block id was accepted"
  | exception Persist.Hard_corruption _ -> ());
  check_int "length unchanged after the rejected batch" 4090 (Branch_stream.length into);
  check_true "the replay sees nothing of the rejected batch" (pull_all () = []);
  check_int "good batch appended" 100
    (Event_log.decode_batch
       (Event_log.encode_batch ~program events ~pos:4090 ~len:100)
       ~program ~into);
  check_true "the replay reads exactly the good batch" (pull_all () = expected 4090 4190);
  check_true "random access agrees"
    (List.init 4190 (fun i ->
         ( Branch_stream.get_block_id into i,
           Branch_stream.get_taken into i,
           Branch_stream.get_next into i ))
    = expected 0 4190)

(* A corrupt recording must never reach the engine: the CLI contract is
   exit-code 5, here the exception at decode time. *)
let replay_after_round_trip_is_identical () =
  let spec = Option.get (Suite.find "twolf") in
  let image = Spec.image spec in
  let program = image.Image.program in
  let policy = Option.get (Policies.find "lei") in
  let max_steps = budget spec in
  let events = Branch_stream.recorder () in
  let live = Simulator.run ~seed:1L ~record:events ~policy ~max_steps image in
  let decoded = Event_log.decode (Event_log.encode ~program ~seed:1L events) ~program ~seed:1L in
  let replayed = Simulator.run ~seed:1L ~replay:decoded ~policy ~max_steps image in
  Alcotest.(check string) "replay through the codec is bit-identical"
    (Run_metrics.to_json (Run_metrics.of_result live))
    (Run_metrics.to_json (Run_metrics.of_result replayed))

let suite =
  [
    case "recorder basics" recorder_basics;
    case "recorder truncate" recorder_truncate;
    case "chunked store: edge schedules agree with the model" store_model_edges;
    QCheck_alcotest.to_alcotest qcheck_store_model;
    case "producers agree (live vs recorded)" stream_producers_agree;
    case "matrix: live == replay, byte-identical" matrix_clean;
    case "matrix: live == replay under mixed faults" matrix_mixed_faults;
    case "event-log round trip" codec_round_trip;
    case "event-log file round trip" codec_file_round_trip;
    case "event-log round trip with fields wider than 32 bits" codec_round_trip_wide_events;
    case "event-log event limit fits the u32 bit count" codec_event_limit_fits_u32;
    case "event-log rejects corruption and identity mismatch" codec_rejects_corruption;
    case "event-log rejects an out-of-range event count" codec_rejects_count_high_word;
    case "decode_batch failure leaves the target unchanged"
      decode_batch_failure_leaves_into_unchanged;
    case "decode_batch rollback across a chunk edge" rollback_across_a_chunk_edge;
    case "replay through the codec is bit-identical" replay_after_round_trip_is_identical;
  ]
