(* Golden bytes for the three binary formats (REVL recordings and batches,
   RSNP snapshots, daemon frames) and the Figure 14 compact traces that
   ride inside snapshots.  Every other codec test is a round
   trip, which still passes when the writer and the reader change the
   format the same way; these digests pin the bytes themselves, so an
   encoder rewrite has to reproduce them exactly. *)

module Spec = Regionsel_workload.Spec
module Suite = Regionsel_workload.Suite
module Image = Regionsel_workload.Image
module Simulator = Regionsel_engine.Simulator
module Branch_stream = Regionsel_engine.Branch_stream
module Policies = Regionsel_core.Policies
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Proto = Regionsel_serve.Proto
module Interp = Regionsel_engine.Interp
module Region = Regionsel_engine.Region
module Compact_trace = Regionsel_core.Compact_trace
open Fixtures

let digest b = Digest.to_hex (Digest.bytes b)

let image bench = Spec.image (Option.get (Suite.find bench))

let record bench pname =
  let events = Branch_stream.recorder () in
  ignore
    (Simulator.run ~seed:1L ~record:events
       ~policy:(Option.get (Policies.find pname))
       ~max_steps:30_000 (image bench));
  events

let pin what expected bytes = Alcotest.(check string) what expected (digest bytes)

let revl_files () =
  List.iter
    (fun (bench, pname, expected) ->
      let program = (image bench).Image.program in
      pin
        (Printf.sprintf "Event_log.encode %s/%s" bench pname)
        expected
        (Event_log.encode ~program ~seed:1L (record bench pname)))
    [
      ("gzip", "net", "518b5d71837e8cdc15da1182725bc2f3");
      ("twolf", "lei", "f967267dfac8a25b09a487f8532b0040");
    ]

let revl_batch () =
  let program = (image "gzip").Image.program in
  (* An odd offset and length, so the batch neither starts nor ends on a
     byte boundary of the file payload. *)
  pin "Event_log.encode_batch gzip/net [1001, +3333)" "4b8ca0114a146b770683f9d05eda169f"
    (Event_log.encode_batch ~program (record "gzip" "net") ~pos:1001 ~len:3333)

(* The Figure 14 compact traces of consecutive 23-block slices of a
   perlbmk execution (indirect dispatch, so every branch code occurs),
   serialized through [Compact_trace.save]. *)
let compact_traces () =
  let interp = Interp.create (image "perlbmk") ~seed:1L in
  let s = Interp.make_step () in
  let out = Buffer.create 4096 in
  let emit v = Buffer.add_string out (string_of_int v ^ ",") in
  for _ = 1 to 200 do
    let blocks = ref [] in
    for _ = 1 to 23 do
      if Interp.step_into interp s then blocks := Interp.block interp s :: !blocks
    done;
    let final_next =
      if s.Interp.next = Regionsel_isa.Addr.none then None else Some s.Interp.next
    in
    Compact_trace.save
      (Compact_trace.encode { Region.blocks = List.rev !blocks; final_next })
      emit
  done;
  pin "Compact_trace.encode perlbmk slices" "c48e672181b8f97393c785d514f1a37a" (Buffer.to_bytes out)

let rsnp_snapshot () =
  let policy = "combined-lei" and seed = 1L in
  let bytes = ref None in
  ignore
    (Simulator.run ~seed
       ~checkpoint:(20_000, fun internals -> bytes := Some (Persist.encode ~seed ~policy internals))
       ~policy:(Option.get (Policies.find policy))
       ~max_steps:30_000 (image "gcc"));
  pin "Persist.encode gcc/combined-lei at step 20000" "da593125be8a3ebdf2bd5befeacf900a"
    (Option.get !bytes)

(* Method regions carry aux entries (eight are bound at step 15000), so
   this snapshot pins the cache section's aux-entry list, which the cache
   derives from its dispatch array on save. *)
let rsnp_aux_entries () =
  let policy = "jit-method" and seed = 1L in
  let params = { Params.default with Params.faults = Params.fault_profile "mixed" } in
  let snap = ref None in
  ignore
    (Simulator.run ~params ~seed
       ~checkpoint:
         ( 15_000,
           fun internals ->
             let cache = internals.Simulator.int_ctx.Context.cache in
             let n_aux =
               List.fold_left
                 (fun n (r : Region.t) ->
                   Regionsel_isa.Addr.Set.fold
                     (fun a n ->
                       match Code_cache.find cache a with Some r' when r' == r -> n + 1 | _ -> n)
                     r.Region.aux_entries n)
                 0 (Code_cache.regions cache)
             in
             snap := Some (n_aux, Persist.encode ~seed ~policy internals) )
       ~policy:(Option.get (Policies.find policy))
       ~max_steps:20_000 (image "gcc"));
  let n_aux, bytes = Option.get !snap in
  check_true "snapshot binds aux entries" (n_aux > 0);
  pin "Persist.encode gcc/jit-method --faults mixed at step 15000" "fc3483869253a46d7f887125f44445da"
    bytes

let proto_frames () =
  pin "Proto Hello frame" "de60ecd795ae522e1cd58ec38c4e184f"
    (Proto.encode
       (Proto.Hello
          {
            h_tenant = "golden";
            h_bench = "twolf";
            h_policy = "lei";
            h_seed = 0x1234_5678_9ABC_DEF0L;
            h_max_steps = 123_456_789_012;
          }));
  let program = (image "twolf").Image.program in
  pin "Proto Events frame" "2a1f068ae4080617c0c638726e58c176"
    (Proto.encode
       (Proto.Events (Event_log.encode_batch ~program (record "twolf" "lei") ~pos:0 ~len:517)))

let suite =
  [
    case "REVL files" revl_files;
    case "REVL batch" revl_batch;
    case "compact traces" compact_traces;
    case "RSNP snapshot" rsnp_snapshot;
    case "RSNP snapshot with aux entries" rsnp_aux_entries;
    case "daemon frames" proto_frames;
  ]
