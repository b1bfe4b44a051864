exception Decode_error of string

(* ------------------------------------------------------------------ *)
(* Explicit-offset primitives into caller-owned bytes                   *)

let set_u8 buf pos n =
  if n < 0 || n > 0xFF then invalid_arg "Codec.set_u8: out of range";
  Bytes.unsafe_set buf pos (Char.unsafe_chr n);
  pos + 1

let set_bool buf pos b = set_u8 buf pos (if b then 1 else 0)

let set_i32 buf pos n =
  if n < -0x8000_0000 || n > 0x7FFF_FFFF then
    invalid_arg "Codec.set_i32: out of range";
  Bytes.set_int32_be buf pos (Int32.of_int n);
  pos + 4

let set_i64 buf pos n =
  Bytes.set_int64_be buf pos (Int64.of_int n);
  pos + 8

let set_bytes buf pos b =
  let len = Bytes.length b in
  let pos = set_i32 buf pos len in
  Bytes.blit b 0 buf pos len;
  pos + len

(* ------------------------------------------------------------------ *)
(* Reusable scratch buffer: grows in place, allocates nothing once warm *)

type scratch = { mutable sbuf : bytes; mutable slen : int }

let scratch ?(initial_capacity = 256) () =
  { sbuf = Bytes.create (max 16 initial_capacity); slen = 0 }

let scratch_reset s = s.slen <- 0

let scratch_truncate s n =
  if n < 0 || n > s.slen then invalid_arg "Codec.scratch_truncate: out of range";
  s.slen <- n

let scratch_length s = s.slen
let scratch_buffer s = s.sbuf
let scratch_contents s = Bytes.sub s.sbuf 0 s.slen

let scratch_ensure s extra =
  let need = s.slen + extra in
  if need > Bytes.length s.sbuf then begin
    let cap = ref (2 * Bytes.length s.sbuf) in
    while need > !cap do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit s.sbuf 0 bigger 0 s.slen;
    s.sbuf <- bigger
  end

let put_u8 s n =
  scratch_ensure s 1;
  s.slen <- set_u8 s.sbuf s.slen n

let put_bool s b = put_u8 s (if b then 1 else 0)

let put_i32 s n =
  scratch_ensure s 4;
  s.slen <- set_i32 s.sbuf s.slen n

let put_i64 s n =
  scratch_ensure s 8;
  s.slen <- set_i64 s.sbuf s.slen n

let put_bytes s b =
  scratch_ensure s (4 + Bytes.length b);
  s.slen <- set_bytes s.sbuf s.slen b

let put_raw s b =
  scratch_ensure s (Bytes.length b);
  Bytes.blit b 0 s.sbuf s.slen (Bytes.length b);
  s.slen <- s.slen + Bytes.length b

(* The length prefix is reserved, then patched once [write] is done: the
   field is written where it lies, with no intermediate bytes. [write]
   may grow the buffer, so it is re-read after. *)
let put_sub s write x =
  scratch_ensure s 4;
  let at = s.slen in
  s.slen <- at + 4;
  write s x;
  ignore (set_i32 s.sbuf at (s.slen - at - 4))

let put_list s f l =
  put_i32 s (List.length l);
  List.iter f l

(* The scratch every [encode_exact] call shares. [shared_busy] is held
   for the whole call, so a nested call, or one from another thread,
   writes into a private scratch instead of over a frame in progress. *)
let shared = scratch ()
let shared_busy = Atomic.make false

(* Past this capacity the shared buffer is dropped after use, so one
   outsized frame does not stay resident. *)
let shared_keep = 65_536

let encode_exact write x =
  if Atomic.compare_and_set shared_busy false true then begin
    scratch_reset shared;
    match write shared x with
    | () ->
        let b = scratch_contents shared in
        if Bytes.length shared.sbuf > shared_keep then
          shared.sbuf <- Bytes.create 256;
        Atomic.set shared_busy false;
        b
    | exception e ->
        Atomic.set shared_busy false;
        raise e
  end
  else begin
    let s = scratch () in
    write s x;
    scratch_contents s
  end

(* ------------------------------------------------------------------ *)
(* Buffer-based encoder (reference implementation)                      *)

type encoder = Buffer.t

let encoder () = Buffer.create 256
let to_bytes e = Buffer.to_bytes e

let write_u8 e n =
  if n < 0 || n > 0xFF then invalid_arg "Codec.write_u8: out of range";
  Buffer.add_char e (Char.chr n)

let write_bool e b = write_u8 e (if b then 1 else 0)

let write_i32 e n =
  if n < -0x8000_0000 || n > 0x7FFF_FFFF then
    invalid_arg "Codec.write_i32: out of range";
  Buffer.add_int32_be e (Int32.of_int n)

let write_i64 e n = Buffer.add_int64_be e (Int64.of_int n)

let write_bytes e b =
  write_i32 e (Bytes.length b);
  Buffer.add_bytes e b

(* ------------------------------------------------------------------ *)
(* Decoder: a reusable cursor over a byte-string slice                  *)

type decoder = { mutable dbuf : bytes; mutable pos : int; mutable limit : int }

let decoder buf = { dbuf = buf; pos = 0; limit = Bytes.length buf }

let decoder_empty () = { dbuf = Bytes.empty; pos = 0; limit = 0 }

let decoder_reset d buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Codec.decoder_reset: slice out of bounds";
  d.dbuf <- buf;
  d.pos <- pos;
  d.limit <- pos + len

let remaining d = d.limit - d.pos
let decoder_pos d = d.pos
let decoder_buffer d = d.dbuf

let need d n =
  if remaining d < n then
    raise (Decode_error (Printf.sprintf "truncated input: need %d, have %d" n (remaining d)))

let read_u8 d =
  need d 1;
  let n = Char.code (Bytes.get d.dbuf d.pos) in
  d.pos <- d.pos + 1;
  n

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error (Printf.sprintf "invalid bool byte %d" n))

let read_i32 d =
  need d 4;
  let n = Int32.to_int (Bytes.get_int32_be d.dbuf d.pos) in
  d.pos <- d.pos + 4;
  n

let read_i64 d =
  need d 8;
  let n = Int64.to_int (Bytes.get_int64_be d.dbuf d.pos) in
  d.pos <- d.pos + 8;
  n

(* The length prefix of a byte string, checked against the input left. *)
let read_len d =
  let len = read_i32 d in
  if len < 0 then raise (Decode_error "negative byte-string length");
  need d len;
  len

let read_bytes d =
  let len = read_len d in
  let b = Bytes.sub d.dbuf d.pos len in
  d.pos <- d.pos + len;
  b

let skip_bytes d =
  let len = read_len d in
  d.pos <- d.pos + len;
  len

let read_count d =
  let n = read_i32 d in
  if n < 0 then raise (Decode_error "negative list length");
  (* Every encoded element occupies at least one byte, so a count larger
     than the remaining input is malformed. Checking before allocating
     keeps a bit-flipped count field from provoking a giant List.init. *)
  if n > remaining d then
    raise
      (Decode_error
         (Printf.sprintf "list length %d exceeds %d remaining bytes" n
            (remaining d)));
  n

let read_list d f =
  let n = read_count d in
  let acc = ref [] in
  for _ = 1 to n do
    acc := f () :: !acc
  done;
  List.rev !acc

let expect_end d =
  if remaining d <> 0 then
    raise (Decode_error (Printf.sprintf "%d trailing bytes" (remaining d)))

(* ------------------------------------------------------------------ *)
(* Read-only views: a byte-string field left in place                   *)

type view = { vbuf : bytes; vpos : int; vlen : int }

let view buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Codec.view: slice out of bounds";
  { vbuf = buf; vpos = pos; vlen = len }

let view_to_bytes v = Bytes.sub v.vbuf v.vpos v.vlen
let view_to_string v = Bytes.sub_string v.vbuf v.vpos v.vlen

let read_view d =
  let len = read_len d in
  let v = { vbuf = d.dbuf; vpos = d.pos; vlen = len } in
  d.pos <- d.pos + len;
  v

let decoder_reset_view d v =
  d.dbuf <- v.vbuf;
  d.pos <- v.vpos;
  d.limit <- v.vpos + v.vlen
