module Domain_pool = Regionsel_engine.Domain_pool
open Fixtures

exception Boom of int

let map_with ~n_domains f tasks =
  Domain_pool.with_pool ~n_domains (fun pool -> Domain_pool.map pool f tasks)

let iter_with ~n_domains f tasks =
  Domain_pool.with_pool ~n_domains (fun pool -> Domain_pool.iter pool f tasks)

let ordering () =
  let tasks = List.init 100 Fun.id in
  let expected = List.map (fun i -> i * i) tasks in
  Alcotest.(check (list int))
    "results in submission order (4 domains)" expected
    (map_with ~n_domains:4 (fun i -> i * i) tasks);
  Alcotest.(check (list int))
    "results in submission order (more domains than tasks)" expected
    (map_with ~n_domains:64 (fun i -> i * i) tasks)

let inline_fallback () =
  (* n_domains = 1 must run inline on the calling domain: a task can then
     safely touch domain-local state such as this closure's ref. *)
  let self = Domain.self () in
  let saw = ref [] in
  let results =
    map_with ~n_domains:1
      (fun i ->
        check_true "runs on the calling domain" (Domain.self () = self);
        saw := i :: !saw;
        i + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] results;
  Alcotest.(check (list int)) "left to right" [ 3; 2; 1 ] !saw

let empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (map_with ~n_domains:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (map_with ~n_domains:4 Fun.id [ 7 ])

let exception_propagation () =
  let raised =
    try
      ignore
        (map_with ~n_domains:4
           (fun i -> if i = 13 then raise (Boom i) else i)
           (List.init 40 Fun.id));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "exception reaches the caller" (Some 13) raised;
  (* Inline path too. *)
  let raised =
    try
      ignore (map_with ~n_domains:1 (fun i -> raise (Boom i)) [ 5 ]);
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "inline exception reaches the caller" (Some 5) raised

let default_n_domains_env () =
  (* The env override is read per call, so exercise both directions. *)
  let with_env v f =
    let old = Sys.getenv_opt "REGIONSEL_DOMAINS" in
    Unix.putenv "REGIONSEL_DOMAINS" v;
    (* No unsetenv in the stdlib: restore a benign "1" when it was unset. *)
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "REGIONSEL_DOMAINS" (Option.value old ~default:"1"))
  in
  with_env "3" (fun () -> check_int "env respected" 3 (Domain_pool.default_n_domains ()));
  with_env "junk" (fun () ->
      check_true "bad env rejected"
        (try
           ignore (Domain_pool.default_n_domains ());
           false
         with Invalid_argument _ -> true));
  (* Zero and negative clamp to sequential rather than erroring, so scripts
     can force single-domain runs without knowing the validation rules. *)
  with_env "0" (fun () -> check_int "0 clamps to 1" 1 (Domain_pool.default_n_domains ()));
  with_env "-3" (fun () -> check_int "-3 clamps to 1" 1 (Domain_pool.default_n_domains ()));
  with_env " 2 " (fun () ->
      check_int "whitespace trimmed" 2 (Domain_pool.default_n_domains ()))

let iter_covers_all () =
  (* Every element visited exactly once, effects visible after the join. *)
  let n = 100 in
  let hits = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    hits.(i) <- Atomic.make 0
  done;
  iter_with ~n_domains:4 (fun i -> Atomic.incr hits.(i)) (Array.init n Fun.id);
  Array.iter (fun a -> check_int "visited exactly once" 1 (Atomic.get a)) hits

let iter_inline_and_empty () =
  iter_with ~n_domains:4 (fun _ -> Alcotest.fail "called on empty") [||];
  let self = Domain.self () in
  let saw = ref [] in
  iter_with ~n_domains:1
    (fun i ->
      check_true "runs on the calling domain" (Domain.self () = self);
      saw := i :: !saw)
    [| 1; 2; 3 |];
  Alcotest.(check (list int)) "inline left to right" [ 3; 2; 1 ] !saw;
  (* A single element runs inline and wakes no worker, whatever n_domains says. *)
  let saw_one = ref 0 in
  iter_with ~n_domains:8
    (fun i ->
      check_true "singleton runs on the calling domain" (Domain.self () = self);
      saw_one := i)
    [| 42 |];
  check_int "singleton" 42 !saw_one

(* A failed round leaves the pool usable: its workers checked in before
   the re-raise, and the next round starts from a fresh index. *)
let iter_exception () =
  Domain_pool.with_pool ~n_domains:4 (fun pool ->
      let raised =
        try
          Domain_pool.iter pool (fun i -> if i = 13 then raise (Boom i)) (Array.init 40 Fun.id);
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int)) "exception reaches the caller" (Some 13) raised;
      let hits = Array.init 100 (fun _ -> Atomic.make 0) in
      Domain_pool.iter pool (fun i -> Atomic.incr hits.(i)) (Array.init 100 Fun.id);
      Array.iter (fun a -> check_int "next round visits once" 1 (Atomic.get a)) hits)

(* Many short rounds on one pool: the parked workers are woken and
   checked in 10,000 times, and every round keeps submission order. *)
let map_many_rounds () =
  Domain_pool.with_pool ~n_domains:3 (fun pool ->
      let tasks = List.init 8 Fun.id in
      for round = 1 to 10_000 do
        let got = Domain_pool.map pool (fun i -> (round * 8) + i) tasks in
        if got <> List.map (fun i -> (round * 8) + i) tasks then
          Alcotest.failf "round %d out of order" round
      done)

let pool_lifetime () =
  let one = Domain_pool.create ~n_domains:1 () in
  check_int "one-domain pool spawns nothing" 0 (Domain_pool.size one);
  Domain_pool.close one;
  let p = Domain_pool.create ~n_domains:3 () in
  check_int "workers spawned once" 2 (Domain_pool.size p);
  Domain_pool.close p;
  Domain_pool.close p;
  check_int "close joined the workers" 0 (Domain_pool.size p);
  let rejects f = try f (); false with Invalid_argument _ -> true in
  check_true "iter after close"
    (rejects (fun () -> Domain_pool.iter p ignore [| 1; 2; 3 |]));
  check_true "map after close" (rejects (fun () -> ignore (Domain_pool.map p Fun.id [ 1; 2 ])));
  check_true "empty map after close" (rejects (fun () -> ignore (Domain_pool.map p Fun.id [])))

let suite =
  [
    case "ordering" ordering;
    case "n_domains = 1 runs inline" inline_fallback;
    case "empty and singleton" empty_and_singleton;
    case "exception propagation" exception_propagation;
    case "REGIONSEL_DOMAINS env" default_n_domains_env;
    case "iter covers all elements" iter_covers_all;
    case "iter inline, empty and singleton" iter_inline_and_empty;
    case "iter exception propagation" iter_exception;
    case "map keeps order over 10,000 rounds" map_many_rounds;
    case "pool size, idempotent close, use after close" pool_lifetime;
  ]
