open Aring_wire

(* One ring's share of a cross-shard multi-key cas: the checks and writes
   whose keys hash to that ring. Every involved ring orders an identical
   copy of the whole op; each replica votes on its own part. *)
type mcas_part = {
  mp_ring : int;
  mp_checks : (string * string option) list;
  mp_writes : (string * string) list;
}

type t =
  | Put of { key : string; value : string }
  | Del of { key : string }
  | Cas of { key : string; expect : string option; value : string }
  | Sync_read of { reader : string; nonce : int; key : string }
  | Hello of {
      view : Types.ring_id;
      daemon : Types.pid;
      applied : int;
      digest : int64;
      synced : bool;
    }
  | Chunk of {
      view : Types.ring_id;
      donor : Types.pid;
      index : int;
      total : int;
      applied : int;
      entries : (string * string) list;
    }
  | Mcas of { id : string; parts : mcas_part list }
  | Mdecide of { id : string; commit : bool }
      (** Sequenced outcome of an {!Mcas}: a coordinator that has
          gathered every involved ring's vote multicasts the decision
          through each involved ring, so a park resolves at one
          deterministic position of the ring's op stream (replicas never
          unpark from node-local timing). Dedups on [id]. *)
  | Skip of { upto : int }
      (** An idle ring's log entry that moves the replica's position up
          to [upto] (a no-op at a replica already there). *)
  | Mcas_table of {
      view : Types.ring_id;
      donor : Types.pid;
      entries : (string * int) list;  (* mcas id -> status code *)
      parked : bytes list;  (* encoded ops: parked head, then its queue *)
    }
      (** Donor's mcas vote/decision table plus its parked-op state,
          streamed ahead of the snapshot chunks so receivers dedup
          retried Mcas copies and reconstruct an undecided park. *)

(* Tags. The encoding reuses the wire codec primitives but lives entirely
   inside daemon App payloads — no frame-level format change. *)
let tag_put = 1
let tag_del = 2
let tag_cas = 3
let tag_sync_read = 4
let tag_hello = 5
let tag_chunk = 6
let tag_mcas = 7
let tag_skip = 8
let tag_mcas_table = 9
let tag_mdecide = 10

let put_str s str = Codec.put_bytes s (Bytes.unsafe_of_string str)
let read_str d = Bytes.unsafe_to_string (Codec.read_bytes d)

let put_ring s (r : Types.ring_id) =
  Codec.put_i32 s r.rep;
  Codec.put_i32 s r.ring_seq

let read_ring d : Types.ring_id =
  let rep = Codec.read_i32 d in
  let ring_seq = Codec.read_i32 d in
  { rep; ring_seq }

let write s op =
  match op with
  | Put { key; value } ->
      Codec.put_u8 s tag_put;
      put_str s key;
      put_str s value
  | Del { key } ->
      Codec.put_u8 s tag_del;
      put_str s key
  | Cas { key; expect; value } ->
      Codec.put_u8 s tag_cas;
      put_str s key;
      (match expect with
      | None -> Codec.put_bool s false
      | Some x ->
          Codec.put_bool s true;
          put_str s x);
      put_str s value
  | Sync_read { reader; nonce; key } ->
      Codec.put_u8 s tag_sync_read;
      put_str s reader;
      Codec.put_i32 s nonce;
      put_str s key
  | Hello { view; daemon; applied; digest; synced } ->
      Codec.put_u8 s tag_hello;
      put_ring s view;
      Codec.put_i32 s daemon;
      Codec.put_i32 s applied;
      Codec.put_i64 s (Int64.to_int digest);
      Codec.put_bool s synced
  | Chunk { view; donor; index; total; applied; entries } ->
      Codec.put_u8 s tag_chunk;
      put_ring s view;
      Codec.put_i32 s donor;
      Codec.put_i32 s index;
      Codec.put_i32 s total;
      Codec.put_i32 s applied;
      Codec.put_list s
        (fun (k, v) ->
          put_str s k;
          put_str s v)
        entries
  | Mcas { id; parts } ->
      Codec.put_u8 s tag_mcas;
      put_str s id;
      Codec.put_list s
        (fun p ->
          Codec.put_i32 s p.mp_ring;
          Codec.put_list s
            (fun (k, x) ->
              put_str s k;
              match x with
              | None -> Codec.put_bool s false
              | Some v ->
                  Codec.put_bool s true;
                  put_str s v)
            p.mp_checks;
          Codec.put_list s
            (fun (k, v) ->
              put_str s k;
              put_str s v)
            p.mp_writes)
        parts
  | Mdecide { id; commit } ->
      Codec.put_u8 s tag_mdecide;
      put_str s id;
      Codec.put_bool s commit
  | Skip { upto } ->
      Codec.put_u8 s tag_skip;
      Codec.put_i32 s upto
  | Mcas_table { view; donor; entries; parked } ->
      Codec.put_u8 s tag_mcas_table;
      put_ring s view;
      Codec.put_i32 s donor;
      Codec.put_list s
        (fun (id, st) ->
          put_str s id;
          Codec.put_u8 s st)
        entries;
      Codec.put_list s (Codec.put_bytes s) parked

let encode op = Codec.encode_exact write op

let decode_from d =
  let tag = Codec.read_u8 d in
  let op =
    if tag = tag_put then
      let key = read_str d in
      let value = read_str d in
      Put { key; value }
    else if tag = tag_del then Del { key = read_str d }
    else if tag = tag_cas then begin
      let key = read_str d in
      let expect = if Codec.read_bool d then Some (read_str d) else None in
      let value = read_str d in
      Cas { key; expect; value }
    end
    else if tag = tag_sync_read then begin
      let reader = read_str d in
      let nonce = Codec.read_i32 d in
      let key = read_str d in
      Sync_read { reader; nonce; key }
    end
    else if tag = tag_hello then begin
      let view = read_ring d in
      let daemon = Codec.read_i32 d in
      let applied = Codec.read_i32 d in
      let digest = Int64.of_int (Codec.read_i64 d) in
      let synced = Codec.read_bool d in
      Hello { view; daemon; applied; digest; synced }
    end
    else if tag = tag_chunk then begin
      let view = read_ring d in
      let donor = Codec.read_i32 d in
      let index = Codec.read_i32 d in
      let total = Codec.read_i32 d in
      let applied = Codec.read_i32 d in
      let entries =
        Codec.read_list d (fun () ->
            let k = read_str d in
            let v = read_str d in
            (k, v))
      in
      Chunk { view; donor; index; total; applied; entries }
    end
    else if tag = tag_mcas then begin
      let id = read_str d in
      let parts =
        Codec.read_list d (fun () ->
            let mp_ring = Codec.read_i32 d in
            let mp_checks =
              Codec.read_list d (fun () ->
                  let k = read_str d in
                  let x =
                    if Codec.read_bool d then Some (read_str d) else None
                  in
                  (k, x))
            in
            let mp_writes =
              Codec.read_list d (fun () ->
                  let k = read_str d in
                  let v = read_str d in
                  (k, v))
            in
            { mp_ring; mp_checks; mp_writes })
      in
      Mcas { id; parts }
    end
    else if tag = tag_mdecide then begin
      let id = read_str d in
      let commit = Codec.read_bool d in
      Mdecide { id; commit }
    end
    else if tag = tag_skip then Skip { upto = Codec.read_i32 d }
    else if tag = tag_mcas_table then begin
      let view = read_ring d in
      let donor = Codec.read_i32 d in
      let entries =
        Codec.read_list d (fun () ->
            let id = read_str d in
            let st = Codec.read_u8 d in
            (id, st))
      in
      let parked = Codec.read_list d (fun () -> Codec.read_bytes d) in
      Mcas_table { view; donor; entries; parked }
    end
    else raise (Codec.Decode_error (Printf.sprintf "Op: unknown tag %d" tag))
  in
  Codec.expect_end d;
  op

let decode bytes = decode_from (Codec.decoder bytes)

(* The write matcher reads the cursor's slice in place, with top-level
   recursive functions only: a closure per field would allocate on every
   match. Each step returns the position after the field it checked, or
   -1 once a field differs or runs past [limit]. *)

external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* [s] from [i] on equals [buf] from [pos + i], the caller having
   checked that [buf] holds [String.length s] bytes from [pos]. Eight
   bytes per step: a byte loop costs ~3 ns per byte, ten times a copy. *)
let rec same_chars buf pos s i =
  i = String.length s
  || Bytes.unsafe_get buf (pos + i) = String.unsafe_get s i
     && same_chars buf pos s (i + 1)

let rec same_words buf pos s i =
  if i + 8 <= String.length s then
    (bytes_get64u buf (pos + i) : int64) = string_get64u s i
    && same_words buf pos s (i + 8)
  else same_chars buf pos s i

(* A length-prefixed string field equal to [s]. *)
let string_end buf pos limit s =
  let n = String.length s in
  if pos < 0 || limit - pos < 4 then -1
  else if Int32.to_int (Bytes.get_int32_be buf pos) <> n || limit - pos - 4 < n
  then -1
  else if same_words buf (pos + 4) s 0 then pos + 4 + n
  else -1

(* A bool byte equal to [b]. *)
let bool_end buf pos limit b =
  if pos < 0 || pos >= limit then -1
  else if Char.code (Bytes.get buf pos) = Bool.to_int b then pos + 1
  else -1

let tag_at d =
  if Codec.remaining d < 1 then -1
  else Char.code (Bytes.get (Codec.decoder_buffer d) (Codec.decoder_pos d))

let starts_write d =
  let tag = tag_at d in
  tag = tag_put || tag = tag_del || tag = tag_cas

let matches d op =
  let buf = Codec.decoder_buffer d and pos = Codec.decoder_pos d + 1 in
  let limit = Codec.decoder_pos d + Codec.remaining d in
  let tag = tag_at d in
  match op with
  | Put { key; value } ->
      tag = tag_put
      && string_end buf (string_end buf pos limit key) limit value = limit
  | Del { key } -> tag = tag_del && string_end buf pos limit key = limit
  | Cas { key; expect; value } ->
      tag = tag_cas
      &&
      let pos = string_end buf pos limit key in
      let pos =
        match expect with
        | None -> bool_end buf pos limit false
        | Some x -> string_end buf (bool_end buf pos limit true) limit x
      in
      string_end buf pos limit value = limit
  | Sync_read _ | Hello _ | Chunk _ | Mcas _ | Mdecide _ | Skip _
  | Mcas_table _ ->
      false

let pp ppf = function
  | Put { key; value } ->
      Format.fprintf ppf "put(%s=%dB)" key (String.length value)
  | Del { key } -> Format.fprintf ppf "del(%s)" key
  | Cas { key; expect; value } ->
      Format.fprintf ppf "cas(%s %s->%dB)" key
        (match expect with None -> "absent" | Some x -> Printf.sprintf "%dB" (String.length x))
        (String.length value)
  | Sync_read { reader; nonce; key } ->
      Format.fprintf ppf "sync_read(%s #%d %s)" reader nonce key
  | Hello { view; daemon; applied; digest; synced } ->
      Format.fprintf ppf "hello(%a d%d applied=%d digest=%Lx%s)"
        Types.pp_ring_id view daemon applied digest
        (if synced then "" else " unsynced")
  | Chunk { view; donor; index; total; applied; entries } ->
      Format.fprintf ppf "chunk(%a donor=%d %d/%d applied=%d n=%d)"
        Types.pp_ring_id view donor (index + 1) total applied
        (List.length entries)
  | Mcas { id; parts } ->
      Format.fprintf ppf "mcas(%s rings=[%s])" id
        (String.concat ","
           (List.map (fun p -> string_of_int p.mp_ring) parts))
  | Mdecide { id; commit } ->
      Format.fprintf ppf "mdecide(%s %s)" id (if commit then "commit" else "abort")
  | Skip { upto } -> Format.fprintf ppf "skip(upto %d)" upto
  | Mcas_table { donor; entries; parked; _ } ->
      Format.fprintf ppf "mcas_table(donor=%d n=%d parked=%d)" donor
        (List.length entries) (List.length parked)
