(* Compiled-region representation tests: cache-layout node numbering, the
   successor bitset (including multi-word rows), the block-id translation,
   offsets before and after installation, and the link-slot arrays. *)

open Regionsel_isa
module Region = Regionsel_engine.Region
open Fixtures

let mk start size term = Block.make ~start ~size ~term

let spec ?(kind = Region.Combined) ?(edges = []) ?(aux = []) ?(hint = []) ~entry nodes =
  {
    Region.entry;
    nodes;
    edges;
    copied_insts = List.fold_left (fun acc (b : Block.t) -> acc + b.Block.size) 0 nodes;
    kind;
    aux_entries = aux;
    layout_hint = hint;
  }

let starts region = List.map (fun (b : Block.t) -> b.Block.start) (Region.layout_blocks region)
let check_starts = Alcotest.(check (list int))

(* Four blocks, entry in the middle, a partial layout hint: the entry is
   node 0, hinted blocks follow in hint order, the rest in address order. *)
let layout_hint_ordering () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                mk 32 4 Terminator.Return; mk 48 5 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program (spec ~entry:32 ~hint:[ 48; 16 ] nodes) in
  check_starts "entry, hint order, then address order" [ 32; 48; 16; 0 ] (starts r);
  check_int "entry is node 0" 0 (Region.node_id r 32);
  check_int "first hinted block is node 1" 1 (Region.node_id r 48);
  check_int "unhinted block comes last" 3 (Region.node_id r 0);
  check_int "non-node address has no node id" (-1) (Region.node_id r 100);
  (* [nodes] stays in address order regardless of layout. *)
  Alcotest.(check (list int)) "nodes are address-sorted" [ 0; 16; 32; 48 ]
    (List.map (fun (b : Block.t) -> b.Block.start) (Region.nodes r))

let entry_first_even_when_hinted_late () =
  (* A hint listing the entry late must not displace it from node 0. *)
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program (spec ~entry:0 ~hint:[ 16; 0 ] nodes) in
  check_starts "entry stays first" [ 0; 16 ] (starts r);
  check_true "entry node is dispatchable" r.Region.node_is_entry.(0);
  check_true "interior node is not" (not r.Region.node_is_entry.(1))

let offsets_before_and_after_install () =
  let nodes = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program (spec ~entry:0 nodes) in
  (* Layout offsets exist independently of installation... *)
  check_int "entry at offset 0" 0 (Region.block_offset r 0);
  check_int "second block follows the entry's copy" (2 * Region.inst_bytes)
    (Region.block_offset r 16);
  check_int "non-node offset is -1" (-1) (Region.block_offset r 100);
  (* ...but cache addresses do not exist until the cache places the region. *)
  check_true "no cache addr before install" (Region.block_cache_addr r 16 = None);
  Region.set_cache_base r 1_000;
  check_true "cache addr after install" (Region.block_cache_addr r 0 = Some 1_000);
  check_true "second block's cache addr follows the entry's copy"
    (Region.block_cache_addr r 16 = Some (1_000 + (2 * Region.inst_bytes)));
  check_true "non-node has no cache addr after install" (Region.block_cache_addr r 100 = None)

(* The compiled automaton against the spec it was built from, over random
   specs: up to 96 nodes, so bitset rows span up to three words, random
   edges (repeats allowed), a random layout hint and non-node blocks
   interleaved in the program.  Node [i] starts at [32 * i]; the block at
   [32 * i + 16] is never a node. *)
let random_spec =
  let gen =
    QCheck.Gen.(
      int_range 1 96 >>= fun n ->
      int_bound (n - 1) >>= fun entry ->
      list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun edges ->
      list_size (int_bound n) (int_bound (n - 1)) >>= fun hint -> return (n, entry, edges, hint))
  in
  let print (n, entry, edges, hint) =
    Printf.sprintf "n=%d entry=%d edges=[%s] hint=[%s]" n entry
      (String.concat "; " (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) edges))
      (String.concat "; " (List.map string_of_int hint))
  in
  QCheck.make ~print gen

let edge_queries_agree =
  QCheck.Test.make ~name:"edge queries agree" ~count:100 random_spec
    (fun (n, entry, edge_ix, hint_ix) ->
      let addr i = 32 * i in
      let nodes = List.init n (fun i -> mk (addr i) (1 + (i mod 5)) Terminator.Return) in
      let others = List.init n (fun i -> mk (addr i + 16) 1 Terminator.Return) in
      let program = Program.of_blocks_exn ~entry:(addr entry) (nodes @ others) in
      let edges = List.map (fun (s, d) -> (addr s, addr d)) edge_ix in
      let r =
        Region.of_spec ~id:0 ~selected_at:0 ~program
          (spec ~entry:(addr entry) ~edges ~hint:(List.map addr hint_ix) nodes)
      in
      let expect what ok = if not ok then QCheck.Test.fail_reportf "%s" what in
      let nid a = Region.node_id r a in
      expect "spans_cycle"
        (r.Region.spans_cycle = List.exists (fun (_, d) -> d = addr entry) edges);
      List.iter
        (fun (src : Block.t) ->
          let src = src.Block.start in
          List.iter
            (fun (dst : Block.t) ->
              let dst = dst.Block.start in
              let want = List.mem (src, dst) edges in
              expect
                (Printf.sprintf "has_edge %d %d" src dst)
                (Region.has_edge r ~src ~dst = want);
              expect
                (Printf.sprintf "has_edge_nodes %d %d" src dst)
                (Region.has_edge_nodes r ~src:(nid src) ~dst:(nid dst) = want))
            nodes;
          (* The compiled fall-through is the first edge the spec lists. *)
          let hot = List.assoc_opt src edges in
          let s = nid src in
          expect
            (Printf.sprintf "hot_succ_addr of %d" src)
            (r.Region.hot_succ_addr.(s) = Option.value hot ~default:(-1));
          expect
            (Printf.sprintf "hot_succ_node of %d" src)
            (r.Region.hot_succ_node.(s) = match hot with Some d -> nid d | None -> -1);
          expect
            (Printf.sprintf "edge from %d to a non-node" src)
            (not (Region.has_edge r ~src ~dst:(src + 16))))
        nodes;
      List.iter
        (fun (b : Block.t) ->
          let a = b.Block.start in
          let is_node = a mod 32 = 0 in
          expect (Printf.sprintf "node_id of %d" a)
            (if is_node then (Region.node_block r (nid a)).Block.start = a else nid a = -1);
          expect
            (Printf.sprintf "node_of_block of %d" a)
            (r.Region.node_of_block.(Program.block_id program a) = nid a);
          expect (Printf.sprintf "cache addr of %d before install" a)
            (Region.block_cache_addr r a = None))
        (nodes @ others);
      (* Installed: each node's copy sits at [cache_base + node_offsets],
         the offsets being the layout's running byte count. *)
      Region.set_cache_base r 4_096;
      let offset = ref 0 in
      for i = 0 to r.Region.n_nodes - 1 do
        let b = Region.node_block r i in
        expect (Printf.sprintf "node %d offset" i) (r.Region.node_offsets.(i) = !offset);
        expect
          (Printf.sprintf "node %d cache addr" i)
          (Region.block_cache_addr r b.Block.start
          = Some (r.Region.cache_base + r.Region.node_offsets.(i)));
        offset := !offset + (b.Block.size * Region.inst_bytes)
      done;
      List.for_all (fun (b : Block.t) -> Region.block_cache_addr r b.Block.start = None) others)

let wide_region_uses_multiword_rows () =
  (* 40 nodes: each bitset row spans two 32-bit words, so edges to nodes
     32..39 live in the second word of their row. *)
  let n = 40 in
  let nodes = List.init n (fun i -> mk (i * 16) 2 Terminator.Return) in
  let edges = [ 0, (n - 1) * 16; (n - 1) * 16, 0 ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program (spec ~entry:0 ~edges nodes) in
  check_int "two words per row" 2 r.Region.succ_stride;
  check_int "node count" n r.Region.n_nodes;
  (* No hint: node ids follow address order, so node (n-1) sits past bit 31. *)
  check_int "last node id" (n - 1) (Region.node_id r ((n - 1) * 16));
  check_true "edge into the second word"
    (Region.has_edge_nodes r ~src:0 ~dst:(n - 1));
  check_true "edge back out of the second word"
    (Region.has_edge_nodes r ~src:(n - 1) ~dst:0);
  check_true "absent high-word edge stays absent"
    (not (Region.has_edge_nodes r ~src:1 ~dst:(n - 1)))

let block_translation_requires_program () =
  let blocks = [ mk 0 2 Terminator.Return; mk 16 3 Terminator.Return;
                 mk 32 4 Terminator.Return ] in
  let program = Program.of_blocks_exn ~entry:0 blocks in
  let s = spec ~entry:16 [ mk 16 3 Terminator.Return; mk 32 4 Terminator.Return ] in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program s in
  check_int "member block translates to its node" 0
    r.Region.node_of_block.(Program.block_id program 16);
  check_int "other member block" 1 r.Region.node_of_block.(Program.block_id program 32);
  check_int "non-member block translates to -1" (-1)
    r.Region.node_of_block.(Program.block_id program 0);
  check_int "one link slot per program block" 3 (Region.n_link_slots r);
  check_true "slots start unlinked" (Region.link_target r 0 = None);
  check_true "out-of-range link query is None" (Region.link_target r 3 = None);
  (* A node the program has no block for cannot be translated: rejected. *)
  check_true "node outside the program rejected"
    (try
       ignore
         (Region.of_spec ~id:1 ~selected_at:1 ~program
            (spec ~entry:16 [ mk 16 3 Terminator.Return; mk 40 1 Terminator.Return ]));
       false
     with Invalid_argument _ -> true)

let duplicate_nodes_deduped () =
  (* A spec listing a block twice compiles it once; node count and layout
     reflect the distinct set. *)
  let b0 = mk 0 2 Terminator.Return and b1 = mk 16 3 Terminator.Return in
  let r = Region.of_spec ~id:0 ~selected_at:0 ~program:loose_program (spec ~entry:0 [ b0; b1; b0 ]) in
  check_int "distinct nodes only" 2 r.Region.n_nodes;
  check_starts "each block placed once" [ 0; 16 ] (starts r)

let suite =
  [
    case "layout hint ordering" layout_hint_ordering;
    case "entry first even when hinted late" entry_first_even_when_hinted_late;
    case "offsets before and after install" offsets_before_and_after_install;
    QCheck_alcotest.to_alcotest edge_queries_agree;
    case "wide region uses multiword rows" wide_region_uses_multiword_rows;
    case "block translation requires program" block_translation_requires_program;
    case "duplicate nodes deduped" duplicate_nodes_deduped;
  ]
