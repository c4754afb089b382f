(* The daemon's wire protocol: a length-prefixed framing of the existing
   REVL event codec.

   Every frame is [u32 length | u8 kind | payload], length counting the
   kind byte.  Integers are big-endian, like every persisted artifact in
   this repo; 64-bit values ride as a high/low u32 pair (the event log's
   seed convention).  The one payload the protocol does not define itself
   is the Events body, which is exactly [Event_log.encode_batch] — the
   REVL bit packing plus its own CRC32, so corrupt event data is caught
   by the same checksum discipline as an on-disk recording.

   Anything malformed raises [Protocol_error] — a typed failure the
   server answers with a Reject frame, never a crash.  The fuzzer's
   [--frames] axis drives arbitrary garbage through [Dechunker] to pin
   that. *)

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

let bstring buf s =
  if String.length s > max_string then invalid_arg "Proto: string too long";
  Wire.bu32 buf (String.length s);
  Buffer.add_string buf s

let btext buf s =
  if String.length s > max_text then invalid_arg "Proto: text too long";
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
  | Result json -> btext out json
  | Data text -> btext out text);
  let frame = Buffer.to_bytes out in
  let flen = Bytes.length frame - 4 in
  if flen > max_frame then invalid_arg "Proto: frame too large";
  Wire.set_u32 frame 0 flen;
  frame

(* --- Decoding --------------------------------------------------------- *)

(* A cursor over one frame body; every read is bounds-checked so a short
   or padded payload is a typed error. *)
type cursor = { c_bytes : Bytes.t; c_end : int; mutable c_pos : int }

let need cur n what = if cur.c_pos + n > cur.c_end then fail "truncated %s" what

let ru8 cur what =
  need cur 1 what;
  let v = Char.code (Bytes.get cur.c_bytes cur.c_pos) in
  cur.c_pos <- cur.c_pos + 1;
  v

let ru32 cur what =
  need cur 4 what;
  cur.c_pos <- cur.c_pos + 4;
  Wire.ru32 cur.c_bytes (cur.c_pos - 4)

(* Every 64-bit field the protocol carries is a non-negative count, so a
   crafted high word that would wrap or land in the sign bit is an error. *)
let ru64 cur what =
  let hi = ru32 cur what in
  let lo = ru32 cur what in
  match Wire.nonneg63 ~hi ~lo with v -> v | exception Failure msg -> fail "%s %s" what msg

let rseed cur what =
  let hi = ru32 cur what in
  let lo = ru32 cur what in
  Wire.seed_of_words ~hi ~lo

let rbounded cur what ~limit =
  let n = ru32 cur what in
  if n > limit then fail "%s string longer than %d bytes" what limit;
  need cur n what;
  let s = Bytes.sub_string cur.c_bytes cur.c_pos n in
  cur.c_pos <- cur.c_pos + n;
  s

let rstring cur what = rbounded cur what ~limit:max_string
let rtext cur what = rbounded cur what ~limit:max_text

let finished cur what =
  if cur.c_pos <> cur.c_end then fail "%s frame has %d trailing bytes" what (cur.c_end - cur.c_pos)

(* Decode one frame body ([kind | payload], the length prefix already
   stripped and validated by the dechunker or [read_msg]). *)
let decode_frame bytes ~pos ~len =
  if len < 1 then fail "empty frame";
  let cur = { c_bytes = bytes; c_end = pos + len; c_pos = pos } in
  let kind = ru8 cur "kind" in
  let msg =
    match kind with
    | 1 ->
      let h_tenant = rstring cur "hello tenant" in
      let h_bench = rstring cur "hello bench" in
      let h_policy = rstring cur "hello policy" in
      let h_seed = rseed cur "hello seed" in
      let h_max_steps = ru64 cur "hello max_steps" in
      if h_max_steps < 0 then fail "negative max_steps";
      if h_tenant = "" then fail "empty tenant name";
      Hello { h_tenant; h_bench; h_policy; h_seed; h_max_steps }
    | 2 -> Events (Bytes.sub bytes cur.c_pos (cur.c_end - cur.c_pos))
    | 3 -> Fin
    | 4 -> Ctrl (rstring cur "ctrl command")
    | 10 ->
      let resume_step = ru64 cur "welcome resume_step" in
      if resume_step < 0 then fail "negative resume_step";
      let session = rstring cur "welcome session" in
      Welcome { resume_step; session }
    | 11 ->
      let c = ru8 cur "reject code" in
      if c >= Array.length reject_codes then fail "unknown reject code %d" c;
      let detail = rstring cur "reject detail" in
      Reject { code = reject_codes.(c); detail }
    | 12 -> Result (rtext cur "result json")
    | 13 -> Data (rtext cur "data body")
    | k -> fail "unknown frame kind %d" k
  in
  (match msg with Events _ -> () | _ -> finished cur "frame");
  msg

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
