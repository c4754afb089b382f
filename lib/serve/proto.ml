(* The daemon's wire protocol; proto.mli has the frame layout and the
   session.  Integers are big-endian, and a 64-bit value rides as a
   high/low u32 pair (the event log's seed convention).  A frame body is
   read through [Wire]'s bounded cursor, the one byte reader under all
   three binary formats; [decode_frame] turns its [Failure]s into
   [Protocol_error], which the server answers with a Reject frame, never
   a crash. *)

module Wire = Regionsel_persist.Wire

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let max_frame = 1 lsl 24
(* 16 MiB: comfortably above the largest Events batch a client sends
   (the CLI chunks at thousands of events, ~2 bytes each), small enough
   that a corrupt length prefix cannot make the daemon buffer gigabytes. *)

let max_string = 1 lsl 16

let max_text = max_frame - 16
(* Export replies (Data, Result) can be far larger than any identity
   string — a Prometheus snapshot over many tenants x 256 windows runs
   to megabytes — so they get the whole frame budget, not [max_string]. *)

type hello = {
  h_tenant : string;
  h_bench : string;
  h_policy : string;
  h_seed : int64;
  h_max_steps : int;
}

type reject_code =
  | Bad_frame  (** Malformed or out-of-sequence frame. *)
  | Unknown_bench
  | Unknown_policy
  | Tenants_saturated
  | Budget_saturated
  | Busy_tenant  (** The tenant is already attached to a live connection. *)
  | Corrupt_events  (** An Events batch failed its checksum or validation. *)
  | Connections_saturated  (** The accepted descriptor is past [select]'s limit. *)

type msg =
  | Hello of hello
  | Events of bytes  (** A still-encoded [Event_log] batch body. *)
  | Fin
  | Ctrl of string
  | Welcome of { resume_step : int; session : string }
  | Reject of { code : reject_code; detail : string }
  | Result of string  (** [Run_metrics.to_json] of the finished tenant. *)
  | Data of string  (** A Ctrl command's reply body. *)

let reject_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unknown_bench -> "unknown-bench"
  | Unknown_policy -> "unknown-policy"
  | Tenants_saturated -> "tenants-saturated"
  | Budget_saturated -> "budget-saturated"
  | Busy_tenant -> "busy-tenant"
  | Corrupt_events -> "corrupt-events"
  | Connections_saturated -> "connections-saturated"

let reject_codes =
  [|
    Bad_frame; Unknown_bench; Unknown_policy; Tenants_saturated; Budget_saturated;
    Busy_tenant; Corrupt_events; Connections_saturated;
  |]

let code_of_reject c =
  let rec go i = if reject_codes.(i) == c then i else go (i + 1) in
  go 0

(* --- Encoding --------------------------------------------------------- *)

let bu64 buf v =
  Wire.bu32 buf (Wire.hi_word v);
  Wire.bu32 buf (Wire.lo_word v)

let bseed buf seed =
  Wire.bu32 buf (Wire.seed_hi seed);
  Wire.bu32 buf (Wire.seed_lo seed)

let bstring ?(limit = max_string) buf s =
  if String.length s > limit then invalid_arg "Proto: string too long";
  Wire.bu32 buf (String.length s);
  Buffer.add_string buf s

let kind_of = function
  | Hello _ -> 1
  | Events _ -> 2
  | Fin -> 3
  | Ctrl _ -> 4
  | Welcome _ -> 10
  | Reject _ -> 11
  | Result _ -> 12
  | Data _ -> 13

let encode msg =
  let out = Buffer.create (match msg with Events b -> 5 + Bytes.length b | _ -> 64) in
  Wire.bu32 out 0 (* the length, set below *);
  Buffer.add_char out (Char.chr (kind_of msg));
  (match msg with
  | Hello h ->
    bstring out h.h_tenant;
    bstring out h.h_bench;
    bstring out h.h_policy;
    bseed out h.h_seed;
    bu64 out h.h_max_steps
  | Events b -> Buffer.add_bytes out b
  | Fin -> ()
  | Ctrl cmd -> bstring out cmd
  | Welcome { resume_step; session } ->
    bu64 out resume_step;
    bstring out session
  | Reject { code; detail } ->
    Buffer.add_char out (Char.chr (code_of_reject code));
    bstring out detail
  | Result json -> bstring ~limit:max_text out json
  | Data text -> bstring ~limit:max_text out text);
  let frame = Buffer.to_bytes out in
  let flen = Bytes.length frame - 4 in
  if flen > max_frame then invalid_arg "Proto: frame too large";
  Wire.set_u32 frame 0 flen;
  frame

(* --- Decoding --------------------------------------------------------- *)

(* Every 64-bit field the protocol carries is a non-negative count, so a
   crafted high word that would wrap or land in the sign bit is an error. *)
let u64 c what =
  let hi = Wire.u32 c what in
  let lo = Wire.u32 c what in
  try Wire.nonneg63 ~hi ~lo with Failure m -> failwith (what ^ " " ^ m)

(* Decode one frame body ([kind | payload], the length prefix already
   stripped and validated by the dechunker or [read_msg]).  The cursor's
   [Failure]s become [Protocol_error] here, and only here. *)
let decode_frame bytes ~pos ~len =
  let c = Wire.cursor bytes ~pos ~len in
  try
    let msg =
      match Wire.u8 c "kind" with
      | 1 ->
        let h_tenant = Wire.string c "hello tenant" ~limit:max_string in
        let h_bench = Wire.string c "hello bench" ~limit:max_string in
        let h_policy = Wire.string c "hello policy" ~limit:max_string in
        let hi = Wire.u32 c "hello seed" in
        let lo = Wire.u32 c "hello seed" in
        let h_max_steps = u64 c "hello max_steps" in
        if h_tenant = "" then failwith "empty tenant name";
        Hello { h_tenant; h_bench; h_policy; h_seed = Wire.seed_of_words ~hi ~lo; h_max_steps }
      | 2 ->
        let n = Wire.remaining c in
        Events (Bytes.sub bytes (Wire.skip c "events" n) n)
      | 3 -> Fin
      | 4 -> Ctrl (Wire.string c "ctrl command" ~limit:max_string)
      | 10 ->
        let resume_step = u64 c "welcome resume_step" in
        let session = Wire.string c "welcome session" ~limit:max_string in
        Welcome { resume_step; session }
      | 11 ->
        let code = Wire.u8 c "reject code" in
        if code >= Array.length reject_codes then
          failwith (Printf.sprintf "unknown reject code %d" code);
        let detail = Wire.string c "reject detail" ~limit:max_string in
        Reject { code = reject_codes.(code); detail }
      | 12 -> Result (Wire.string c "result json" ~limit:max_text)
      | 13 -> Data (Wire.string c "data body" ~limit:max_text)
      | k -> failwith (Printf.sprintf "unknown frame kind %d" k)
    in
    Wire.expect_end c "frame";
    msg
  with Failure m -> raise (Protocol_error m)

(* --- Incremental dechunking ------------------------------------------- *)

(* The server's per-connection parser: bytes arrive in whatever chunks
   the socket delivers; frames come out only when complete.  A peer that
   stalls mid-frame stalls only its own dechunker — the event loop never
   blocks on a partial frame. *)
module Dechunker = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }
  let pending t = t.len

  let feed t bytes ~pos ~len =
    if len < 0 || pos < 0 || pos + len > Bytes.length bytes then
      invalid_arg "Dechunker.feed: range outside the buffer";
    let need = t.len + len in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while need > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    Bytes.blit bytes pos t.buf t.len len;
    t.len <- need

  let next t =
    if t.len < 4 then None
    else begin
      let flen = Wire.ru32 t.buf 0 in
      if flen < 1 || flen > max_frame then fail "frame length %d out of bounds" flen;
      if t.len < 4 + flen then None
      else begin
        let msg = decode_frame t.buf ~pos:4 ~len:flen in
        let rest = t.len - (4 + flen) in
        if rest > 0 then Bytes.blit t.buf (4 + flen) t.buf 0 rest;
        t.len <- rest;
        Some msg
      end
    end
end

(* --- Blocking fd transport (client side, tests) ----------------------- *)

module Io = Regionsel_persist.Io

let write_msg fd msg =
  let data = encode msg in
  Io.write_all fd data ~pos:0 ~len:(Bytes.length data)

let read_msg fd =
  let hdr = Bytes.create 4 in
  match Io.read fd hdr ~pos:0 ~len:4 with
  | 0 -> None
  | n ->
    if not (if n < 4 then Io.really_read fd hdr ~pos:n ~len:(4 - n) else true) then
      fail "stream ended inside a frame header";
    let flen = Wire.ru32 hdr 0 in
    if flen < 1 || flen > max_frame then fail "frame length %d out of bounds" flen;
    let body = Bytes.create flen in
    if not (Io.really_read fd body ~pos:0 ~len:flen) then fail "stream ended inside a frame";
    Some (decode_frame body ~pos:0 ~len:flen)
