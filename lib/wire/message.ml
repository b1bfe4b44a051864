open Types

type data = {
  d_ring : ring_id;
  seq : seqno;
  pid : pid;
  d_round : round;
  post_token : bool;
  service : service;
  payload : bytes;
}

type token = {
  t_ring : ring_id;
  token_id : int;
  t_round : round;
  t_seq : seqno;
  aru : seqno;
  aru_id : pid option;
  fcc : int;
  rtr : seqno list;
}

type join = {
  j_pid : pid;
  proc_set : pid list;
  fail_set : pid list;
  join_seq : int;
}

type member_info = {
  m_pid : pid;
  m_old_ring : ring_id;
  m_aru : seqno;
  m_high_seq : seqno;
  m_high_delivered : seqno;
}

type commit = {
  c_ring : ring_id;
  c_token_id : int;
  c_pass : int;
  c_memb : member_info list;
}

type t =
  | Data of data
  | Token of token
  | Join of join
  | Commit of commit

let kind = function
  | Data _ -> "data"
  | Token _ -> "token"
  | Join _ -> "join"
  | Commit _ -> "commit"

let tag_data = 1
let tag_token = 2
let tag_join = 3
let tag_commit = 4

let service_tag = function
  | Fifo -> 0
  | Causal -> 1
  | Agreed -> 2
  | Safe -> 3
  | Recovered -> 4

let service_of_tag = function
  | 0 -> Fifo
  | 1 -> Causal
  | 2 -> Agreed
  | 3 -> Safe
  | 4 -> Recovered
  | n -> raise (Codec.Decode_error (Printf.sprintf "invalid service tag %d" n))

(* A single serializer parametrized over the output sink guarantees the
   Buffer-based reference path and the zero-allocation scratch path can
   never drift apart byte-wise (the golden-vector test pins the format
   itself). [w_list] writes only the 4-byte count; elements follow via
   the per-field writers. *)
type writer = {
  w_u8 : int -> unit;
  w_bool : bool -> unit;
  w_i64 : int -> unit;
  w_bytes : bytes -> unit;
  w_count : int -> unit;
}

let buffer_writer e =
  {
    w_u8 = Codec.write_u8 e;
    w_bool = Codec.write_bool e;
    w_i64 = Codec.write_i64 e;
    w_bytes = Codec.write_bytes e;
    w_count = Codec.write_i32 e;
  }

let scratch_writer s =
  {
    w_u8 = Codec.put_u8 s;
    w_bool = Codec.put_bool s;
    w_i64 = Codec.put_i64 s;
    w_bytes = Codec.put_bytes s;
    w_count = Codec.put_i32 s;
  }

let write_ring_id w (r : ring_id) =
  w.w_i64 r.rep;
  w.w_i64 r.ring_seq

let write_i64_list w l =
  w.w_count (List.length l);
  List.iter w.w_i64 l

let write_member_info w m =
  w.w_i64 m.m_pid;
  write_ring_id w m.m_old_ring;
  w.w_i64 m.m_aru;
  w.w_i64 m.m_high_seq;
  w.w_i64 m.m_high_delivered

let write_message w m =
  match m with
  | Data d ->
      w.w_u8 tag_data;
      write_ring_id w d.d_ring;
      w.w_i64 d.seq;
      w.w_i64 d.pid;
      w.w_i64 d.d_round;
      w.w_bool d.post_token;
      w.w_u8 (service_tag d.service);
      w.w_bytes d.payload
  | Token t ->
      w.w_u8 tag_token;
      write_ring_id w t.t_ring;
      w.w_i64 t.token_id;
      w.w_i64 t.t_round;
      w.w_i64 t.t_seq;
      w.w_i64 t.aru;
      (match t.aru_id with
      | None -> w.w_bool false
      | Some pid ->
          w.w_bool true;
          w.w_i64 pid);
      w.w_i64 t.fcc;
      write_i64_list w t.rtr
  | Join j ->
      w.w_u8 tag_join;
      w.w_i64 j.j_pid;
      write_i64_list w j.proc_set;
      write_i64_list w j.fail_set;
      w.w_i64 j.join_seq
  | Commit c ->
      w.w_u8 tag_commit;
      write_ring_id w c.c_ring;
      w.w_i64 c.c_token_id;
      w.w_i64 c.c_pass;
      w.w_count (List.length c.c_memb);
      List.iter (write_member_info w) c.c_memb

let encode m =
  let e = Codec.encoder () in
  write_message (buffer_writer e) m;
  Codec.to_bytes e

let read_ring_id d =
  let rep = Codec.read_i64 d in
  let ring_seq = Codec.read_i64 d in
  { rep; ring_seq }

let read_member_info d =
  let m_pid = Codec.read_i64 d in
  let m_old_ring = read_ring_id d in
  let m_aru = Codec.read_i64 d in
  let m_high_seq = Codec.read_i64 d in
  let m_high_delivered = Codec.read_i64 d in
  { m_pid; m_old_ring; m_aru; m_high_seq; m_high_delivered }

let decode_from d =
  let tag = Codec.read_u8 d in
  let m =
    if tag = tag_data then begin
      let d_ring = read_ring_id d in
      let seq = Codec.read_i64 d in
      let pid = Codec.read_i64 d in
      let d_round = Codec.read_i64 d in
      let post_token = Codec.read_bool d in
      let service = service_of_tag (Codec.read_u8 d) in
      let payload = Codec.read_bytes d in
      Data { d_ring; seq; pid; d_round; post_token; service; payload }
    end
    else if tag = tag_token then begin
      let t_ring = read_ring_id d in
      let token_id = Codec.read_i64 d in
      let t_round = Codec.read_i64 d in
      let t_seq = Codec.read_i64 d in
      let aru = Codec.read_i64 d in
      let aru_id =
        if Codec.read_bool d then Some (Codec.read_i64 d) else None
      in
      let fcc = Codec.read_i64 d in
      let rtr = Codec.read_list d (fun () -> Codec.read_i64 d) in
      Token { t_ring; token_id; t_round; t_seq; aru; aru_id; fcc; rtr }
    end
    else if tag = tag_join then begin
      let j_pid = Codec.read_i64 d in
      let proc_set = Codec.read_list d (fun () -> Codec.read_i64 d) in
      let fail_set = Codec.read_list d (fun () -> Codec.read_i64 d) in
      let join_seq = Codec.read_i64 d in
      Join { j_pid; proc_set; fail_set; join_seq }
    end
    else if tag = tag_commit then begin
      let c_ring = read_ring_id d in
      let c_token_id = Codec.read_i64 d in
      let c_pass = Codec.read_i64 d in
      let c_memb = Codec.read_list d (fun () -> read_member_info d) in
      Commit { c_ring; c_token_id; c_pass; c_memb }
    end
    else raise (Codec.Decode_error (Printf.sprintf "unknown message tag %d" tag))
  in
  Codec.expect_end d;
  m

let decode buf = decode_from (Codec.decoder buf)

(* ------------------------------------------------------------------ *)
(* Pooled codec: reusable scratch encoder + decoder cursor.             *)

module Pool = struct
  type pool = { enc : Codec.scratch; w : writer; dec : Codec.decoder }
  (* The writer (a record of closures over the scratch) is built once at
     pool creation — rebuilding it per encode costs ~240 bytes/message. *)

  let create ?(initial_capacity = 2048) () =
    let enc = Codec.scratch ~initial_capacity () in
    { enc; w = scratch_writer enc; dec = Codec.decoder_empty () }

  let encode_view p m =
    Codec.scratch_reset p.enc;
    write_message p.w m;
    (Codec.scratch_buffer p.enc, Codec.scratch_length p.enc)

  let decode_sub p buf ~pos ~len =
    Codec.decoder_reset p.dec buf ~pos ~len;
    decode_from p.dec

  let decode p buf = decode_sub p buf ~pos:0 ~len:(Bytes.length buf)
end

let decode_result buf =
  match decode buf with
  | m -> Ok m
  | exception Codec.Decode_error msg -> Error msg

let header_overhead =
  let empty =
    Data
      {
        d_ring = { rep = 0; ring_seq = 0 };
        seq = 0;
        pid = 0;
        d_round = 0;
        post_token = false;
        service = Agreed;
        payload = Bytes.empty;
      }
  in
  Bytes.length (encode empty)

let data_wire_size ~payload_len = header_overhead + payload_len

let ring_id_size = 16

let wire_size = function
  | Data d -> header_overhead + Bytes.length d.payload
  | Token t ->
      1 + ring_id_size + (8 * 4)
      + (match t.aru_id with None -> 1 | Some _ -> 9)
      + 8 + 4
      + (8 * List.length t.rtr)
  | Join j ->
      1 + 8 + 4
      + (8 * List.length j.proc_set)
      + 4
      + (8 * List.length j.fail_set)
      + 8
  | Commit c ->
      1 + ring_id_size + 8 + 8 + 4 + (48 * List.length c.c_memb)

let pp ppf = function
  | Data d ->
      Format.fprintf ppf "data(seq=%d pid=%d round=%d %s%s len=%d)" d.seq d.pid
        d.d_round
        (service_to_string d.service)
        (if d.post_token then " post" else "")
        (Bytes.length d.payload)
  | Token t ->
      Format.fprintf ppf "token(id=%d round=%d seq=%d aru=%d fcc=%d rtr=%d)"
        t.token_id t.t_round t.t_seq t.aru t.fcc (List.length t.rtr)
  | Join j ->
      Format.fprintf ppf "join(pid=%d procs=%d fails=%d seq=%d)" j.j_pid
        (List.length j.proc_set) (List.length j.fail_set) j.join_seq
  | Commit c ->
      Format.fprintf ppf "commit(%a pass=%d memb=%d)" pp_ring_id c.c_ring
        c.c_pass (List.length c.c_memb)
