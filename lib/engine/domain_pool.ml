(* A persistent pool of OCaml 5 domains with one work-stealing loop.

   Workers are spawned once and park on [wake] between rounds.  A round
   publishes its stealing loop as [job], bumps [generation] and
   broadcasts; each worker runs the job once per generation and checks
   in, while the caller runs the same loop and then waits for every
   check-in — a full barrier, so all effects are visible when [iter]
   returns.  Elements are claimed from a shared index, exactly once. *)

let default_n_domains () =
  match Sys.getenv_opt "REGIONSEL_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> max 1 n (* 0 or negative clamps to sequential, not an error *)
    | None -> invalid_arg "REGIONSEL_DOMAINS must be an integer")
  | None -> max 1 (Domain.recommended_domain_count ())

type t = {
  lock : Mutex.t;
  wake : Condition.t;  (* a new generation, or [closed] *)
  checked_in : Condition.t;  (* [pending] reached 0 *)
  mutable job : unit -> unit;
  mutable generation : int;
  mutable pending : int;  (* workers yet to finish this generation's job *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let worker p () =
  let seen = ref 0 in
  Mutex.lock p.lock;
  while not p.closed do
    if p.generation = !seen then Condition.wait p.wake p.lock
    else begin
      seen := p.generation;
      let job = p.job in
      Mutex.unlock p.lock;
      job ();
      Mutex.lock p.lock;
      p.pending <- p.pending - 1;
      if p.pending = 0 then Condition.signal p.checked_in
    end
  done;
  Mutex.unlock p.lock

let close p =
  if not p.closed then begin
    Mutex.lock p.lock;
    p.closed <- true;
    Condition.broadcast p.wake;
    Mutex.unlock p.lock;
    List.iter Domain.join p.workers;
    p.workers <- []
  end

let create ?n_domains () =
  let n = match n_domains with Some d -> max 1 d | None -> default_n_domains () in
  let p =
    { lock = Mutex.create (); wake = Condition.create (); checked_in = Condition.create ();
      job = ignore; generation = 0; pending = 0; closed = false; workers = [] }
  in
  (* A failed spawn (the runtime's domain limit) joins the workers
     already started before re-raising. *)
  match for _ = 2 to n do p.workers <- Domain.spawn (worker p) :: p.workers done with
  | () -> p
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close p;
    Printexc.raise_with_backtrace e bt

let with_pool ?n_domains f =
  let p = create ?n_domains () in
  Fun.protect ~finally:(fun () -> close p) (fun () -> f p)

let size p = List.length p.workers

let iter p f tasks =
  if p.closed then invalid_arg "Domain_pool: pool is closed";
  let n = Array.length tasks in
  if n <= 1 || p.workers = [] then Array.iter f tasks
  else begin
    let next = Atomic.make 0 and failure = Atomic.make None in
    let rec steal () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failure = None then
        match f tasks.(i) with
        | () -> steal ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    Mutex.lock p.lock;
    p.job <- steal;
    p.generation <- p.generation + 1;
    p.pending <- List.length p.workers;
    Condition.broadcast p.wake;
    Mutex.unlock p.lock;
    steal ();
    Mutex.lock p.lock;
    while p.pending > 0 do
      Condition.wait p.checked_in p.lock
    done;
    p.job <- ignore;
    Mutex.unlock p.lock;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure)
  end

let map p f tasks =
  let tasks = Array.of_list tasks in
  let results = Array.make (Array.length tasks) None in
  iter p (fun i -> results.(i) <- Some (f tasks.(i))) (Array.init (Array.length tasks) Fun.id);
  List.map Option.get (Array.to_list results)
