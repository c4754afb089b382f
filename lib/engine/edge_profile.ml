open Regionsel_isa

(* Edges are keyed by a single packed int, [src lsl 32 lor dst].  Addresses
   are small non-negative ints, so the packing is injective and never
   overflows OCaml's 63-bit ints.

   Recording is batched through a small fixed ring of (key, count) slots —
   a direct-mapped accumulation cache in front of the big flat table.  The
   per-step path hashes the key to one of [ring_size] slots: a hit bumps
   the slot's count in place (the common case — the hot loop replays the
   same few edges), a conflicting occupant is spilled into [edges] with its
   accumulated count (one probe), and the slot is reseeded.  The big table
   is only touched on conflicts and drains, so its cache-unfriendly probe
   leaves the per-step path, and one probe can land hundreds of
   occurrences.

   Exactness invariant: every read ([count]/[preds]/[n_edges]/[fold])
   drains the ring first, so observers — snapshot windows, the watchdog,
   policy trip decisions, post-run metrics — always see counts identical
   to an unbatched per-step profile.  The parity and batching tests pin
   this down.  [flushes] counts full drains (spills are per-slot and not
   counted). *)

type t = {
  mutable edges : Flat_tbl.t;
  ring_keys : int array; (* -1 = empty slot *)
  ring_counts : int array;
  mutable ring_live : int; (* occupied slots, to make an empty drain free *)
  mutable flushes : int;
  mutable pred_index : Addr.Set.t Addr.Table.t option;
}

let ring_size = 512
let ring_shift = 63 - 9 (* top 9 bits of the 63-bit fibonacci product *)

let pack ~src ~dst = (src lsl 32) lor dst
let unpack_src key = key lsr 32
let unpack_dst key = key land 0xFFFF_FFFF

let create () =
  {
    edges = Flat_tbl.create 4096;
    ring_keys = Array.make ring_size (-1);
    ring_counts = Array.make ring_size 0;
    ring_live = 0;
    flushes = 0;
    pred_index = None;
  }

(* Only a previously unseen edge can change the predecessor sets. *)
let[@inline] spill t key count =
  if Flat_tbl.add_fresh t.edges key count then t.pred_index <- None

let[@inline] record t ~src ~dst =
  let key = pack ~src ~dst in
  let i = (key * 0x9E3779B97F4A7C1) lsr ring_shift in
  let k = Array.unsafe_get t.ring_keys i in
  if k = key then
    Array.unsafe_set t.ring_counts i (Array.unsafe_get t.ring_counts i + 1)
  else begin
    if k >= 0 then spill t k (Array.unsafe_get t.ring_counts i)
    else t.ring_live <- t.ring_live + 1;
    Array.unsafe_set t.ring_keys i key;
    Array.unsafe_set t.ring_counts i 1
  end

let flush t =
  if t.ring_live > 0 then begin
    for i = 0 to ring_size - 1 do
      let k = Array.unsafe_get t.ring_keys i in
      if k >= 0 then begin
        spill t k (Array.unsafe_get t.ring_counts i);
        Array.unsafe_set t.ring_keys i (-1)
      end
    done;
    t.ring_live <- 0;
    t.flushes <- t.flushes + 1
  end

let flushes t = t.flushes

let count t ~src ~dst =
  flush t;
  let c = Flat_tbl.find t.edges (pack ~src ~dst) in
  if c < 0 then 0 else c

let build_pred_index t =
  let index = Addr.Table.create 1024 in
  Flat_tbl.iter
    (fun key _ ->
      let src = unpack_src key and dst = unpack_dst key in
      let prev = Option.value ~default:Addr.Set.empty (Addr.Table.find_opt index dst) in
      Addr.Table.replace index dst (Addr.Set.add src prev))
    t.edges;
  t.pred_index <- Some index;
  index

let preds t a =
  flush t;
  let index = match t.pred_index with Some i -> i | None -> build_pred_index t in
  Option.value ~default:Addr.Set.empty (Addr.Table.find_opt index a)

let n_edges t =
  flush t;
  Flat_tbl.length t.edges

let fold f t init =
  flush t;
  Flat_tbl.fold
    (fun key count acc -> f ~src:(unpack_src key) ~dst:(unpack_dst key) count acc)
    t.edges init

(* Checkpoint support.  The ring is serialized verbatim rather than
   drained: draining would bump [flushes], which bench reports, and would
   make a save-then-continue run observably different from an
   uninterrupted one. *)

let save t emit =
  emit ring_size;
  Array.iter emit t.ring_keys;
  Array.iter emit t.ring_counts;
  emit t.ring_live;
  emit t.flushes;
  Snap.emit_pairs emit (Flat_tbl.sorted_pairs t.edges)

let load t r =
  if Snap.int r <> ring_size then failwith "Edge_profile.load: ring size mismatch";
  let ring_keys = Array.map (fun _ -> Snap.int r) t.ring_keys in
  let ring_counts = Array.map (fun _ -> Snap.int r) t.ring_counts in
  let ring_live = Snap.tag r ~n:(ring_size + 1) in
  let flushes = Snap.int r in
  let n = Snap.len r in
  let edges = Flat_tbl.create (max 4096 n) in
  for _ = 1 to n do
    let key = Snap.int r in
    Flat_tbl.set edges key (Snap.int r)
  done;
  fun () ->
    Array.blit ring_keys 0 t.ring_keys 0 ring_size;
    Array.blit ring_counts 0 t.ring_counts 0 ring_size;
    t.ring_live <- ring_live;
    t.flushes <- flushes;
    t.edges <- edges;
    t.pred_index <- None
