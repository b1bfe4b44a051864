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
let read_string d = Bytes.unsafe_to_string (Codec.read_bytes d)

let rec write s t =
  match t with
  | App { sender; groups; payload } ->
      Codec.put_u8 s tag_app;
      put_string s sender;
      Codec.put_list s (put_string s) groups;
      Codec.put_bytes s payload
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

let rec read_one ~nested d =
  let tag = Codec.read_u8 d in
  if tag = tag_app then begin
    let sender = read_string d in
    let groups = Codec.read_list d (fun () -> read_string d) in
    let payload = Codec.read_view d in
    App { sender; groups; payload }
  end
  else if tag = tag_join then begin
    let member = read_string d in
    let group = read_string d in
    Join { member; group }
  end
  else if tag = tag_leave then begin
    let member = read_string d in
    let group = read_string d in
    Leave { member; group }
  end
  else if tag = tag_batch && not nested then
    Batch (Codec.read_list d (fun () -> read_one ~nested:true d))
  else raise (Codec.Decode_error (Printf.sprintf "unknown envelope tag %d" tag))

let parse d =
  let t = read_one ~nested:false d in
  Codec.expect_end d;
  t

let rec copy : parsed -> t = function
  | App { sender; groups; payload } ->
      App { sender; groups; payload = Codec.view_to_bytes payload }
  | Join { member; group } -> Join { member; group }
  | Leave { member; group } -> Leave { member; group }
  | Batch entries -> Batch (List.map copy entries)

let decode buf = copy (parse (Codec.decoder buf))

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
