type t = {
  mutable observed_bytes : int;
  mutable high_water : int;
  mutable blacklisted : int;
  mutable blacklisted_high_water : int;
  mutable links : int;
  mutable links_high_water : int;
}

let create () =
  {
    observed_bytes = 0;
    high_water = 0;
    blacklisted = 0;
    blacklisted_high_water = 0;
    links = 0;
    links_high_water = 0;
  }

let add_observed_bytes t delta =
  t.observed_bytes <- t.observed_bytes + delta;
  assert (t.observed_bytes >= 0);
  if t.observed_bytes > t.high_water then t.high_water <- t.observed_bytes

let observed_bytes t = t.observed_bytes
let observed_bytes_high_water t = t.high_water

let set_blacklisted t n =
  t.blacklisted <- n;
  if n > t.blacklisted_high_water then t.blacklisted_high_water <- n

let blacklisted t = t.blacklisted
let blacklisted_high_water t = t.blacklisted_high_water

let set_links t n =
  t.links <- n;
  if n > t.links_high_water then t.links_high_water <- n

let links t = t.links
let links_high_water t = t.links_high_water

let save t emit =
  emit t.observed_bytes;
  emit t.high_water;
  emit t.blacklisted;
  emit t.blacklisted_high_water;
  emit t.links;
  emit t.links_high_water

let load t r =
  let g = Array.init 6 (fun _ -> Snap.nat r) in
  fun () ->
    t.observed_bytes <- g.(0);
    t.high_water <- g.(1);
    t.blacklisted <- g.(2);
    t.blacklisted_high_water <- g.(3);
    t.links <- g.(4);
    t.links_high_water <- g.(5)
