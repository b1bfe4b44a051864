(* Canonical golden-vector message set for the wire format.

   Every [Message.t] variant appears with both typical and edge values:
   empty and maximal payloads, zero and [max_int] sequence numbers,
   present/absent [aru_id], empty and long [rtr] lists, empty and
   populated membership structures. The committed
   [test/vectors/frames.bin] stores the byte-exact encoding of each entry
   (see {!write_file} for the framing); the golden test asserts that both
   the reference and the pooled encoder reproduce those bytes exactly and
   that decoding them is lossless. Changing the wire format therefore
   requires deliberately regenerating the file with [gen_vectors.exe]. *)

open Aring_wire

let ring0 : Types.ring_id = { rep = 0; ring_seq = 0 }
let ring1 : Types.ring_id = { rep = 3; ring_seq = 17 }
let ring_max : Types.ring_id = { rep = max_int; ring_seq = max_int }

let data ?(ring = ring1) ?(seq = 101) ?(pid = 4) ?(round = 12)
    ?(post_token = false) ?(service = Types.Agreed) payload : Message.t =
  Message.Data
    {
      d_ring = ring;
      seq;
      pid;
      d_round = round;
      post_token;
      service;
      payload;
    }

let byte_ramp n = Bytes.init n (fun i -> Char.chr (i land 0xFF))

let all : (string * Message.t) list =
  [
    (* Data: every service level, both post_token values, payload edges. *)
    ("data-empty", data ~ring:ring0 ~seq:0 ~pid:0 ~round:0 Bytes.empty);
    ("data-fifo", data ~service:Types.Fifo (Bytes.of_string "fifo"));
    ("data-causal", data ~service:Types.Causal (Bytes.of_string "causal"));
    ("data-agreed", data ~service:Types.Agreed (Bytes.of_string "agreed"));
    ("data-safe", data ~service:Types.Safe (Bytes.of_string "safe"));
    (* Recovery: an old ring's message re-sent on a new ring, marked by
       the service byte alone. *)
    ( "data-recovered",
      data ~ring:{ rep = 0; ring_seq = 18 } ~seq:1 ~pid:0 ~round:1
        ~service:Types.Recovered
        (Message.encode (data (Bytes.of_string "old"))) );
    ("data-post-token", data ~post_token:true (Bytes.of_string "post"));
    ("data-1350", data ~seq:123456789 ~round:100_000 (byte_ramp 1350));
    ("data-8850-jumbo", data ~pid:63 (byte_ramp 8850));
    ("data-max-seq", data ~ring:ring_max ~seq:max_int ~round:max_int Bytes.empty);
    (* Token: aru_id presence, rtr list edges. *)
    ( "token-plain",
      Message.Token
        {
          t_ring = ring1;
          token_id = 55;
          t_round = 7;
          t_seq = 140;
          aru = 120;
          aru_id = Some 2;
          fcc = 33;
          rtr = [ 121; 125; 130 ];
        } );
    ( "token-no-aru-id-empty-rtr",
      Message.Token
        {
          t_ring = ring0;
          token_id = 0;
          t_round = 0;
          t_seq = 0;
          aru = 0;
          aru_id = None;
          fcc = 0;
          rtr = [];
        } );
    ( "token-max-fields-long-rtr",
      Message.Token
        {
          t_ring = ring_max;
          token_id = max_int;
          t_round = max_int;
          t_seq = max_int;
          aru = max_int - 1;
          aru_id = Some max_int;
          fcc = 512;
          rtr = List.init 512 (fun i -> (i * 7) + 1);
        } );
    (* Join: empty and populated sets. *)
    ( "join-empty-sets",
      Message.Join { j_pid = 0; proc_set = []; fail_set = []; join_seq = 0 } );
    ( "join-populated",
      Message.Join
        {
          j_pid = 5;
          proc_set = [ 0; 1; 2; 5 ];
          fail_set = [ 3 ];
          join_seq = 9;
        } );
    ( "join-max",
      Message.Join
        {
          j_pid = max_int;
          proc_set = List.init 64 (fun i -> i);
          fail_set = [ max_int ];
          join_seq = max_int;
        } );
    (* Commit: both passes, empty and populated memb. *)
    ( "commit-empty",
      Message.Commit
        { c_ring = ring0; c_token_id = 0; c_pass = 1; c_memb = [] }
    );
    ( "commit-populated",
      Message.Commit
        {
          c_ring = { rep = 0; ring_seq = 18 };
          c_token_id = 2;
          c_pass = 2;
          c_memb =
            [
              {
                m_pid = 0;
                m_old_ring = ring1;
                m_aru = 100;
                m_high_seq = 120;
                m_high_delivered = 95;
              };
              {
                m_pid = 5;
                m_old_ring = { rep = 5; ring_seq = 11 };
                m_aru = 0;
                m_high_seq = 0;
                m_high_delivered = 0;
              };
            ];
        } );
    ( "commit-max",
      Message.Commit
        {
          c_ring = ring_max;
          c_token_id = max_int;
          c_pass = 2;
          c_memb =
            [
              {
                m_pid = max_int;
                m_old_ring = ring_max;
                m_aru = max_int;
                m_high_seq = max_int;
                m_high_delivered = max_int;
              };
            ];
        } );
    (* Daemon packing: a Batch envelope riding as an ordinary Data payload
       pins the packing wire format (batch tag, entry count, per-entry
       framing) alongside the ring frames it travels in. *)
    ( "data-batch-envelope",
      data ~seq:4242 ~post_token:true
        (Aring_daemon.Envelope.encode
           (Aring_daemon.Envelope.Batch
              [
                Aring_daemon.Envelope.App
                  {
                    sender = "#tx#0";
                    groups = [ "g1"; "g2" ];
                    payload = Bytes.of_string "packed-1";
                  };
                Aring_daemon.Envelope.Join { member = "#rx#1"; group = "g1" };
                Aring_daemon.Envelope.App
                  { sender = "#tx#0"; groups = [ "g1" ]; payload = byte_ramp 64 };
                Aring_daemon.Envelope.Leave { member = "#rx#1"; group = "g2" };
              ])) );
  ]

(* ------------------------------------------------------------------ *)
(* Frame file format: magic, frame count, then length-prefixed frames.  *)

let magic = "ARINGVEC"

let write_file path =
  let oc = open_out_bin path in
  output_string oc magic;
  let u32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    output_bytes oc b
  in
  u32 (List.length all);
  List.iter
    (fun (_, m) ->
      let b = Message.encode m in
      u32 (Bytes.length b);
      output_bytes oc b)
    all;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let m = String.length magic in
  if len < m + 4 || String.sub raw 0 m <> magic then
    failwith (path ^ ": bad golden-vector magic");
  let u32 pos = Int32.to_int (String.get_int32_be raw pos) in
  let count = u32 m in
  let frames = ref [] in
  let pos = ref (m + 4) in
  for _ = 1 to count do
    let flen = u32 !pos in
    pos := !pos + 4;
    if !pos + flen > len then failwith (path ^ ": truncated frame");
    frames := Bytes.of_string (String.sub raw !pos flen) :: !frames;
    pos := !pos + flen
  done;
  if !pos <> len then failwith (path ^ ": trailing bytes");
  List.rev !frames
