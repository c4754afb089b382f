open Regionsel_isa
module Splitmix = Regionsel_prng.Splitmix

type spec =
  | Always_taken
  | Never_taken
  | Bernoulli of float
  | Loop of int
  | Pattern of bool array
  | Phased of (int * spec) list

type indirect_spec =
  | Weighted_targets of (Addr.t * float) array
  | Round_robin of Addr.t array

type state =
  | S_const of bool
  | S_bernoulli of { thr : int; prng : Splitmix.t }
      (* [thr] = ceil (p * 2^53): [bits53 < thr] iff [float < p], exactly —
         scaling by a power of two and the ceil are both exact on doubles —
         so each decision is an int compare instead of a boxed float. *)
  | S_loop of { trip : int; mutable left : int }
  | S_pattern of { pattern : bool array; mutable pos : int }
  | S_phased of { phases : (int * state) array; mutable phase : int; mutable left : int }

let rec make_state spec prng =
  match spec with
  | Always_taken -> S_const true
  | Never_taken -> S_const false
  | Bernoulli p ->
    if p < 0.0 || p > 1.0 then invalid_arg "Behavior: Bernoulli probability out of range";
    S_bernoulli { thr = int_of_float (Float.ceil (p *. 9007199254740992.0)); prng = Splitmix.split prng }
  | Loop n ->
    if n < 1 then invalid_arg "Behavior: Loop trip count must be >= 1";
    S_loop { trip = n; left = n - 1 }
  | Pattern pat ->
    if Array.length pat = 0 then invalid_arg "Behavior: empty pattern";
    S_pattern { pattern = Array.copy pat; pos = 0 }
  | Phased phases ->
    if phases = [] then invalid_arg "Behavior: empty phase list";
    List.iter (fun (k, _) -> if k < 1 then invalid_arg "Behavior: phase length must be >= 1") phases;
    let phases = Array.of_list (List.map (fun (k, s) -> k, make_state s prng) phases) in
    let first_len, _ = phases.(0) in
    S_phased { phases; phase = 0; left = first_len }

let rec decide = function
  | S_const b -> b
  | S_bernoulli s -> Splitmix.bits53 s.prng < s.thr
  | S_loop s ->
    if s.left > 0 then begin
      s.left <- s.left - 1;
      true
    end
    else begin
      s.left <- s.trip - 1;
      false
    end
  | S_pattern s ->
    let outcome = s.pattern.(s.pos) in
    (* [pos] is always in range, so wrap-around is a compare, not a div. *)
    let p = s.pos + 1 in
    s.pos <- (if p = Array.length s.pattern then 0 else p);
    outcome
  | S_phased s ->
    let _, inner = s.phases.(s.phase) in
    let outcome = decide inner in
    s.left <- s.left - 1;
    if s.left = 0 then begin
      let p = s.phase + 1 in
      s.phase <- (if p = Array.length s.phases then 0 else p);
      let len, _ = s.phases.(s.phase) in
      s.left <- len
    end;
    outcome

type indirect_state =
  | I_weighted of { targets : Addr.t array; weights : float array; prng : Splitmix.t }
  | I_round_robin of { targets : Addr.t array; mutable pos : int }

let make_indirect spec prng =
  match spec with
  | Weighted_targets pairs ->
    if Array.length pairs = 0 then invalid_arg "Behavior: no indirect targets";
    let targets = Array.map fst pairs in
    let weights = Array.map snd pairs in
    I_weighted { targets; weights; prng = Splitmix.split prng }
  | Round_robin targets ->
    if Array.length targets = 0 then invalid_arg "Behavior: no indirect targets";
    I_round_robin { targets = Array.copy targets; pos = 0 }

let choose = function
  | I_weighted s -> s.targets.(Splitmix.categorical s.prng ~weights:s.weights)
  | I_round_robin s ->
    let tgt = s.targets.(s.pos) in
    let p = s.pos + 1 in
    s.pos <- (if p = Array.length s.targets then 0 else p);
    tgt

(* Checkpoint support: flatten a state's mutable position — PRNG limbs,
   loop/pattern/phase cursors — into an int stream.  The structure
   (variant shape, phase arity) comes from the spec, so only the mutables
   travel.  Decoding builds a state detached from the run: a scratch
   generator feeds the spec's splits and the saved limbs then overwrite
   them, so the state depends on the spec and the stream alone. *)

let rec save_state st emit =
  match st with
  | S_const _ -> ()
  | S_bernoulli s ->
    let hi, lo = Splitmix.state s.prng in
    emit hi;
    emit lo
  | S_loop s -> emit s.left
  | S_pattern s -> emit s.pos
  | S_phased s ->
    emit s.phase;
    emit s.left;
    Array.iter (fun (_, inner) -> save_state inner emit) s.phases

let read_prng g r =
  let hi = Snap.tag r ~n:0x1_0000_0000 in
  Splitmix.set_state g ~hi ~lo:(Snap.tag r ~n:0x1_0000_0000)

let rec read_position st r =
  match st with
  | S_const _ -> ()
  | S_bernoulli s -> read_prng s.prng r
  | S_loop s -> s.left <- Snap.tag r ~n:s.trip
  | S_pattern s -> s.pos <- Snap.tag r ~n:(Array.length s.pattern)
  | S_phased s ->
    s.phase <- Snap.tag r ~n:(Array.length s.phases);
    let len, _ = s.phases.(s.phase) in
    s.left <- Snap.int r;
    if s.left < 1 || s.left > len then failwith "Behavior: phase cursor out of range";
    Array.iter (fun (_, inner) -> read_position inner r) s.phases

let read_state spec r =
  let st = make_state spec (Splitmix.create ~seed:0L) in
  read_position st r;
  st

let save_indirect st emit =
  match st with
  | I_weighted s ->
    let hi, lo = Splitmix.state s.prng in
    emit hi;
    emit lo
  | I_round_robin s -> emit s.pos

let read_indirect spec r =
  let st = make_indirect spec (Splitmix.create ~seed:0L) in
  (match st with
  | I_weighted s -> read_prng s.prng r
  | I_round_robin s -> s.pos <- Snap.tag r ~n:(Array.length s.targets));
  st

let rec pp_spec ppf = function
  | Always_taken -> Format.pp_print_string ppf "always"
  | Never_taken -> Format.pp_print_string ppf "never"
  | Bernoulli p -> Format.fprintf ppf "bernoulli(%.2f)" p
  | Loop n -> Format.fprintf ppf "loop(%d)" n
  | Pattern pat ->
    Format.fprintf ppf "pattern(%s)"
      (String.concat "" (Array.to_list (Array.map (fun b -> if b then "T" else "N") pat)))
  | Phased phases ->
    Format.fprintf ppf "phased(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (k, s) -> Format.fprintf ppf "%d:%a" k pp_spec s))
      phases
