open Aring_wire

type 'payload env =
  | App of { sender : string; groups : string list; payload : 'payload }
  | Join of { member : string; group : string }
  | Leave of { member : string; group : string }
  | Batch of 'payload env list

type t = bytes env
type parsed = Codec.view env

let tag_app = 1
let tag_join = 2
let tag_leave = 3
let tag_batch = 4

let put_string s str = Codec.put_bytes s (Bytes.unsafe_of_string str)

let write_app s ~sender ~groups write x =
  Codec.put_u8 s tag_app;
  put_string s sender;
  Codec.put_list s (put_string s) groups;
  Codec.put_sub s write x

let rec write s t =
  match t with
  | App { sender; groups; payload } ->
      write_app s ~sender ~groups Codec.put_raw payload
  | Join { member; group } ->
      Codec.put_u8 s tag_join;
      put_string s member;
      put_string s group
  | Leave { member; group } ->
      Codec.put_u8 s tag_leave;
      put_string s member;
      put_string s group
  | Batch entries ->
      Codec.put_u8 s tag_batch;
      Codec.put_list s
        (fun entry ->
          match entry with
          | Batch _ -> invalid_arg "Envelope.encode: nested batch"
          | entry -> write s entry)
        entries

let encode t = Codec.encode_exact write t

(* A Batch is its tag, its count, then its entries back to back. *)
let batch entries ~len ~count =
  let b = Bytes.create (5 + len) in
  let pos = Codec.set_i32 b (Codec.set_u8 b 0 tag_batch) count in
  Bytes.blit entries 0 b pos len;
  b

(* Every field is a 1-byte tag, a 4-byte length or count, or the bytes
   a length counts. *)
let str_size s = 4 + String.length s

let rec encoded_size = function
  | App { sender; groups; payload } ->
      1 + str_size sender
      + List.fold_left (fun n g -> n + str_size g) 4 groups
      + 4 + Bytes.length payload
  | Join { member; group } | Leave { member; group } ->
      1 + str_size member + str_size group
  | Batch entries ->
      List.fold_left
        (fun n entry ->
          match entry with
          | Batch _ -> invalid_arg "Envelope.encoded_size: nested batch"
          | entry -> n + encoded_size entry)
        5 entries

(* ------------------------------------------------------------------ *)
(* Name table                                                          *)

(* An open-addressed table keyed by byte strings, probed with a slice of
   a frame so a hit copies nothing. [hash] is the key's [hash_slice]. *)
type 'a slot = Free | Slot of { hash : int; key : string; value : 'a }

type 'a table = { mutable slots : 'a slot array; mutable used : int }

type names = {
  strings : string table;  (* sender, member and group names *)
  lists : string list table;  (* App group lists, keyed by their span *)
}

let names_cap = 4096
let min_slots = 16

(* Slots stay at most half full, so a table never outgrows this. *)
let max_slots = 2 * names_cap

let table () = { slots = Array.make min_slots Free; used = 0 }
let names () = { strings = table (); lists = table () }
let names_count n = n.strings.used + n.lists.used

(* FNV-1a over the slice, in native ints: no boxing, no closure. *)
let hash_slice buf pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x01000193
  done;
  !h land max_int

let rec key_equal key buf pos i len =
  i = len
  || String.unsafe_get key i = Bytes.unsafe_get buf (pos + i)
     && key_equal key buf pos (i + 1) len

(* The value stored under the slice's bytes.
   @raise Not_found when there is none. *)
let rec find tbl buf pos len hash i =
  match Array.unsafe_get tbl.slots i with
  | Free -> raise Not_found
  | Slot s ->
      if s.hash = hash && String.length s.key = len && key_equal s.key buf pos 0 len
      then s.value
      else find tbl buf pos len hash ((i + 1) land (Array.length tbl.slots - 1))

let lookup tbl buf pos len hash =
  find tbl buf pos len hash (hash land (Array.length tbl.slots - 1))

let rec place slots slot i =
  match slots.(i) with
  | Free -> slots.(i) <- slot
  | Slot _ -> place slots slot ((i + 1) land (Array.length slots - 1))

let insert slots = function
  | Free -> ()
  | Slot s as slot -> place slots slot (s.hash land (Array.length slots - 1))

(* Past [names_cap] entries in all, both tables start over, as the span
   collector's in-flight table does: the working set of names is small,
   so a reset costs a few misses, never unbounded growth. *)
let add names tbl hash key value =
  if names_count names >= names_cap then begin
    Array.fill names.strings.slots 0 (Array.length names.strings.slots) Free;
    Array.fill names.lists.slots 0 (Array.length names.lists.slots) Free;
    names.strings.used <- 0;
    names.lists.used <- 0
  end;
  if 2 * (tbl.used + 1) > Array.length tbl.slots && Array.length tbl.slots < max_slots
  then begin
    let grown = Array.make (2 * Array.length tbl.slots) Free in
    Array.iter (insert grown) tbl.slots;
    tbl.slots <- grown
  end;
  insert tbl.slots (Slot { hash; key; value });
  tbl.used <- tbl.used + 1

let read_name names d =
  let len = Codec.skip_bytes d in
  let buf = Codec.decoder_buffer d in
  let pos = Codec.decoder_pos d - len in
  let hash = hash_slice buf pos len in
  match lookup names.strings buf pos len hash with
  | name -> name
  | exception Not_found ->
      let name = Bytes.sub_string buf pos len in
      add names names.strings hash name name;
      name

(* An App's group list, looked up by its whole encoded span (count and
   names); a miss parses the span again, name by name. *)
let read_groups names d =
  let start = Codec.decoder_pos d in
  for _ = 1 to Codec.read_count d do
    ignore (Codec.skip_bytes d)
  done;
  let buf = Codec.decoder_buffer d in
  let len = Codec.decoder_pos d - start in
  let hash = hash_slice buf start len in
  match lookup names.lists buf start len hash with
  | groups -> groups
  | exception Not_found ->
      let span = Codec.decoder_empty () in
      Codec.decoder_reset span buf ~pos:start ~len;
      let groups = Codec.read_list span (fun () -> read_name names span) in
      add names names.lists hash (Bytes.sub_string buf start len) groups;
      groups

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

type 'a reader = {
  app : 'a -> sender:string -> groups:string list -> Codec.view -> 'a;
  join : 'a -> member:string -> group:string -> 'a;
  leave : 'a -> member:string -> group:string -> 'a;
}

let unknown_tag tag =
  raise (Codec.Decode_error (Printf.sprintf "unknown envelope tag %d" tag))

let at_batch d =
  Codec.remaining d > 0
  && Char.code (Bytes.get (Codec.decoder_buffer d) (Codec.decoder_pos d))
     = tag_batch

(* Step over one non-batch entry, reading nothing out of it. *)
let skip_entry d =
  let tag = Codec.read_u8 d in
  if tag = tag_app then begin
    ignore (Codec.skip_bytes d);
    for _ = 1 to Codec.read_count d do
      ignore (Codec.skip_bytes d)
    done;
    ignore (Codec.skip_bytes d)
  end
  else if tag = tag_join || tag = tag_leave then begin
    ignore (Codec.skip_bytes d);
    ignore (Codec.skip_bytes d)
  end
  else unknown_tag tag

let check d =
  let buf = Codec.decoder_buffer d
  and pos = Codec.decoder_pos d
  and len = Codec.remaining d in
  if at_batch d then begin
    ignore (Codec.read_u8 d);
    for _ = 1 to Codec.read_count d do
      skip_entry d
    done
  end
  else skip_entry d;
  Codec.expect_end d;
  Codec.decoder_reset d buf ~pos ~len

let read_entry names d r acc =
  let tag = Codec.read_u8 d in
  if tag = tag_app then begin
    let sender = read_name names d in
    let groups = read_groups names d in
    let payload = Codec.read_view d in
    r.app acc ~sender ~groups payload
  end
  else if tag = tag_join then begin
    let member = read_name names d in
    let group = read_name names d in
    r.join acc ~member ~group
  end
  else if tag = tag_leave then begin
    let member = read_name names d in
    let group = read_name names d in
    r.leave acc ~member ~group
  end
  else unknown_tag tag

let read_header d =
  if at_batch d then begin
    ignore (Codec.read_u8 d);
    Codec.read_count d
  end
  else 1

let rec read_entries names d r n acc =
  if n = 0 then acc else read_entries names d r (n - 1) (read_entry names d r acc)

let read names d r acc = read_entries names d r (read_header d) acc

(* [parse] is [read] with a reader that builds the entries, newest
   first. *)
let entries : parsed list reader =
  {
    app = (fun acc ~sender ~groups payload -> App { sender; groups; payload } :: acc);
    join = (fun acc ~member ~group -> Join { member; group } :: acc);
    leave = (fun acc ~member ~group -> Leave { member; group } :: acc);
  }

let parse names d =
  check d;
  if at_batch d then Batch (List.rev (read names d entries []))
  else List.hd (read names d entries [])

let rec copy : parsed -> t = function
  | App { sender; groups; payload } ->
      App { sender; groups; payload = Codec.view_to_bytes payload }
  | Join { member; group } -> Join { member; group }
  | Leave { member; group } -> Leave { member; group }
  | Batch entries -> Batch (List.map copy entries)

let decode buf = copy (parse (names ()) (Codec.decoder buf))

let member_name ~daemon ~session = Printf.sprintf "#%s#%d" session daemon

let rec pp ppf = function
  | App { sender; groups; payload } ->
      Format.fprintf ppf "app(%s -> %s, %d bytes)" sender
        (String.concat "," groups) (Bytes.length payload)
  | Join { member; group } -> Format.fprintf ppf "join(%s -> %s)" member group
  | Leave { member; group } -> Format.fprintf ppf "leave(%s -> %s)" member group
  | Batch entries ->
      Format.fprintf ppf "batch(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
        entries
