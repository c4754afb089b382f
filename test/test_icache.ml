(* Unit tests for the I-cache model and the region cache-layout plumbing
   that feeds it. *)

module Icache = Regionsel_engine.Icache
module Region = Regionsel_engine.Region
module Code_cache = Regionsel_engine.Code_cache
module Simulator = Regionsel_engine.Simulator
module Policies = Regionsel_core.Policies
open Regionsel_isa
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let cold_miss_then_hit () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:8;
  check_int "one access" 1 (Icache.accesses c);
  check_int "cold miss" 1 (Icache.misses c);
  Icache.access c ~addr:8 ~bytes:8;
  check_int "same line hits" 1 (Icache.misses c)

let multi_line_fetch () =
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:40;
  check_int "three lines touched" 3 (Icache.accesses c);
  check_int "three cold misses" 3 (Icache.misses c)

let lru_within_set () =
  (* 2 ways, 8 sets with this geometry: addresses 0, 128 and 256 all map to
     set 0 at 16-byte lines x 8 sets. *)
  let c = Icache.create ~size_bytes:256 ~line_bytes:16 ~ways:2 () in
  Icache.access c ~addr:0 ~bytes:1;
  Icache.access c ~addr:128 ~bytes:1;
  Icache.access c ~addr:0 ~bytes:1 (* refresh 0; 128 becomes LRU *);
  Icache.access c ~addr:256 ~bytes:1 (* evicts 128 *);
  Icache.access c ~addr:0 ~bytes:1;
  check_int "0 survived (LRU evicted 128)" 3 (Icache.misses c);
  Icache.access c ~addr:128 ~bytes:1;
  check_int "128 was evicted" 4 (Icache.misses c)

let miss_rate_and_reset () =
  let c = Icache.create () in
  check_true "empty rate" (Icache.miss_rate c = 0.0);
  Icache.access c ~addr:0 ~bytes:4;
  Icache.access c ~addr:0 ~bytes:4;
  check_true "rate is misses over accesses" (abs_float (Icache.miss_rate c -. 0.5) < 1e-9);
  Icache.reset c;
  check_int "reset clears counters" 0 (Icache.accesses c);
  Icache.access c ~addr:0 ~bytes:4;
  check_int "reset clears contents too" 1 (Icache.misses c)

let bad_geometry_rejected () =
  check_true "non power-of-two sets rejected"
    (try
       ignore (Icache.create ~size_bytes:96 ~line_bytes:16 ~ways:2 ());
       false
     with Invalid_argument _ -> true)

let layout_assigned_at_install () =
  let cache = Code_cache.create ~program:loose_program () in
  let spec b = Region.spec_of_path ~kind:Region.Trace { Region.blocks = [ b ]; final_next = None } in
  let r1 = Code_cache.install_exn cache (spec (mk 0 10 Terminator.Return)) in
  let r2 = Code_cache.install_exn cache (spec (mk 100 5 Terminator.Return)) in
  Alcotest.(check (option int)) "first region at base 0" (Some 0) (Region.block_cache_addr r1 0);
  Alcotest.(check (option int)) "second region after the first"
    (Some (Region.cache_bytes r1))
    (Region.block_cache_addr r2 100);
  Alcotest.(check (option int)) "non-node has no layout" None (Region.block_cache_addr r1 99)

let layout_entry_first () =
  (* Even when the entry block has the highest address, it is laid out
     first in the region. *)
  let low = mk 0 4 (Terminator.Jump 100) in
  let high = mk 100 4 (Terminator.Jump 0) in
  let cache = Code_cache.create ~program:loose_program () in
  let r =
    Code_cache.install_exn cache
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ high; low ]; final_next = Some 100 })
  in
  Alcotest.(check (option int)) "entry at offset 0" (Some 0) (Region.block_cache_addr r 100);
  Alcotest.(check (option int)) "other block after it" (Some 16) (Region.block_cache_addr r 0)

let uninstalled_region_has_no_layout () =
  let r =
    Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program
      (Region.spec_of_path ~kind:Region.Trace
         { Region.blocks = [ mk 0 4 Terminator.Return ]; final_next = None })
  in
  Alcotest.(check (option int)) "no address before install" None (Region.block_cache_addr r 0)

let simulator_drives_icache () =
  let result = run Policies.net (simple_loop ~trip:20_000 ()) in
  let accesses = Icache.accesses result.Simulator.icache in
  check_true "cached execution touched the icache" (accesses > 10_000);
  check_true "a resident loop almost always hits"
    (Icache.miss_rate result.Simulator.icache < 0.01)

let combination_lowers_misses_on_figure4 () =
  let rate policy = Icache.miss_rate (run policy (figure4 ())).Simulator.icache in
  check_true "combined region is denser than split traces"
    (rate Policies.combined_net <= rate Policies.net)

let suite =
  [
    case "cold miss then hit" cold_miss_then_hit;
    case "multi-line fetch" multi_line_fetch;
    case "lru within set" lru_within_set;
    case "miss rate and reset" miss_rate_and_reset;
    case "bad geometry rejected" bad_geometry_rejected;
    case "layout assigned at install" layout_assigned_at_install;
    case "layout entry first" layout_entry_first;
    case "uninstalled region has no layout" uninstalled_region_has_no_layout;
    case "simulator drives icache" simulator_drives_icache;
    case "combination lowers misses" combination_lowers_misses_on_figure4;
  ]
