open Regionsel_isa

type interp_block = { mutable block : Block.t; mutable taken : bool; mutable next : Addr.t }

type event =
  | Interp_block of interp_block
  | Cache_exited of { from_entry : Addr.t; src : Addr.t; tgt : Addr.t }
  | Region_invalidated of { entry : Addr.t }

type action = No_action | Install of Region.spec list

module type S = sig
  type t

  val name : string
  val create : Context.t -> t
  val handle : t -> event -> action
  val save : t -> (int -> unit) -> unit
  val load : Context.t -> Snap.reader -> t
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let instantiate (module P : S) ctx = Packed ((module P), P.create ctx)
let handle (Packed ((module P), state)) event = P.handle state event
let name (module P : S) = P.name
let save (Packed ((module P), state)) emit = P.save state emit
let load (module P : S) ctx read = Packed ((module P), P.load ctx read)
