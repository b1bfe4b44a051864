(* Wire-format tests: codec primitives, message round-trips (including
   property-based random messages), size accounting, and malformed-input
   rejection. *)

open Aring_wire

let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Codec primitives                                                      *)

let test_codec_roundtrip_ints () =
  let e = Codec.encoder () in
  Codec.write_u8 e 200;
  Codec.write_bool e true;
  Codec.write_i32 e (-123456);
  Codec.write_i64 e 0x1234_5678_9ABC_DEF;
  Codec.write_bytes e (Bytes.of_string "hello");
  Codec.write_i32 e 3;
  List.iter (Codec.write_i64 e) [ 1; 2; 3 ];
  let d = Codec.decoder (Codec.to_bytes e) in
  check Alcotest.int "u8" 200 (Codec.read_u8 d);
  check Alcotest.bool "bool" true (Codec.read_bool d);
  check Alcotest.int "i32" (-123456) (Codec.read_i32 d);
  check Alcotest.int "i64" 0x1234_5678_9ABC_DEF (Codec.read_i64 d);
  check Alcotest.string "bytes" "hello" (Bytes.to_string (Codec.read_bytes d));
  check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3 ]
    (Codec.read_list d (fun () -> Codec.read_i64 d));
  Codec.expect_end d

let test_codec_truncation () =
  let e = Codec.encoder () in
  Codec.write_i64 e 42;
  let full = Codec.to_bytes e in
  let truncated = Bytes.sub full 0 4 in
  let d = Codec.decoder truncated in
  Alcotest.check_raises "truncated i64"
    (Codec.Decode_error "truncated input: need 8, have 4") (fun () ->
      ignore (Codec.read_i64 d))

let test_codec_trailing () =
  let d = Codec.decoder (Bytes.make 3 'x') in
  ignore (Codec.read_u8 d);
  Alcotest.check_raises "trailing bytes" (Codec.Decode_error "2 trailing bytes")
    (fun () -> Codec.expect_end d)

let test_codec_u8_range () =
  let e = Codec.encoder () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.write_u8: out of range")
    (fun () -> Codec.write_u8 e 256)

(* -------------------------------------------------------------------- *)
(* Message round-trips                                                   *)

let ring : Types.ring_id = { rep = 3; ring_seq = 17 }

let sample_data : Message.data =
  {
    d_ring = ring;
    seq = 101;
    pid = 4;
    d_round = 12;
    post_token = true;
    service = Types.Safe;
    payload = Bytes.of_string "payload-bytes";
  }

let sample_token : Message.token =
  {
    t_ring = ring;
    token_id = 55;
    t_round = 7;
    t_seq = 140;
    aru = 120;
    aru_id = Some 2;
    fcc = 33;
    rtr = [ 121; 125; 130 ];
  }

let sample_join : Message.join =
  { j_pid = 5; proc_set = [ 0; 1; 2; 5 ]; fail_set = [ 3 ]; join_seq = 9 }

let sample_commit : Message.commit =
  {
    c_ring = { rep = 0; ring_seq = 18 };
    c_token_id = 2;
    c_pass = 1;
    c_memb =
      [
        {
          m_pid = 0;
          m_old_ring = ring;
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
  }

let roundtrip m = Message.decode (Message.encode m)

let test_roundtrip_data () =
  match roundtrip (Message.Data sample_data) with
  | Message.Data d ->
      check Alcotest.int "seq" sample_data.seq d.seq;
      check Alcotest.int "pid" sample_data.pid d.pid;
      check Alcotest.int "round" sample_data.d_round d.d_round;
      check Alcotest.bool "post_token" sample_data.post_token d.post_token;
      check Alcotest.bool "service" true
        (Types.service_equal sample_data.service d.service);
      check Alcotest.string "payload"
        (Bytes.to_string sample_data.payload)
        (Bytes.to_string d.payload);
      check Alcotest.bool "ring" true (Types.ring_id_equal sample_data.d_ring d.d_ring)
  | m -> Alcotest.failf "wrong kind: %s" (Message.kind m)

let test_roundtrip_token () =
  match roundtrip (Message.Token sample_token) with
  | Message.Token t ->
      check Alcotest.int "token_id" sample_token.token_id t.token_id;
      check Alcotest.int "seq" sample_token.t_seq t.t_seq;
      check Alcotest.int "aru" sample_token.aru t.aru;
      check (Alcotest.option Alcotest.int) "aru_id" sample_token.aru_id t.aru_id;
      check Alcotest.int "fcc" sample_token.fcc t.fcc;
      check (Alcotest.list Alcotest.int) "rtr" sample_token.rtr t.rtr
  | m -> Alcotest.failf "wrong kind: %s" (Message.kind m)

let test_roundtrip_token_no_aru_id () =
  let tok = { sample_token with aru_id = None } in
  match roundtrip (Message.Token tok) with
  | Message.Token t ->
      check (Alcotest.option Alcotest.int) "aru_id none" None t.aru_id
  | m -> Alcotest.failf "wrong kind: %s" (Message.kind m)

let test_roundtrip_join () =
  match roundtrip (Message.Join sample_join) with
  | Message.Join j ->
      check (Alcotest.list Alcotest.int) "proc_set" sample_join.proc_set j.proc_set;
      check (Alcotest.list Alcotest.int) "fail_set" sample_join.fail_set j.fail_set;
      check Alcotest.int "join_seq" sample_join.join_seq j.join_seq
  | m -> Alcotest.failf "wrong kind: %s" (Message.kind m)

let test_roundtrip_commit () =
  match roundtrip (Message.Commit sample_commit) with
  | Message.Commit c ->
      check Alcotest.int "pass" sample_commit.c_pass c.c_pass;
      check Alcotest.int "members" 2 (List.length c.c_memb);
      let m0 = List.hd c.c_memb in
      check Alcotest.int "m_aru" 100 m0.m_aru;
      check Alcotest.int "m_high_seq" 120 m0.m_high_seq;
      check Alcotest.bool "m_old_ring" true (Types.ring_id_equal m0.m_old_ring ring)
  | m -> Alcotest.failf "wrong kind: %s" (Message.kind m)

let test_unknown_tag () =
  let bad = Bytes.make 1 '\xFF' in
  Alcotest.check_raises "unknown tag" (Codec.Decode_error "unknown message tag 255")
    (fun () -> ignore (Message.decode bad))

let test_decode_rejects_trailing () =
  let b = Message.encode (Message.Join sample_join) in
  let padded = Bytes.cat b (Bytes.make 1 'z') in
  Alcotest.check_raises "trailing" (Codec.Decode_error "1 trailing bytes")
    (fun () -> ignore (Message.decode padded))

(* -------------------------------------------------------------------- *)
(* Random message properties                                             *)

let service_gen =
  QCheck.Gen.oneofl
    [ Types.Fifo; Types.Causal; Types.Agreed; Types.Safe; Types.Recovered ]

let ring_gen =
  QCheck.Gen.(
    map2 (fun rep ring_seq : Types.ring_id -> { rep; ring_seq }) (0 -- 100)
      (0 -- 10_000))

let data_gen =
  QCheck.Gen.(
    ring_gen >>= fun d_ring ->
    0 -- 1_000_000 >>= fun seq ->
    0 -- 64 >>= fun pid ->
    0 -- 100_000 >>= fun d_round ->
    bool >>= fun post_token ->
    service_gen >>= fun service ->
    string_size (0 -- 2000) >>= fun payload ->
    return
      (Message.Data
         {
           d_ring;
           seq;
           pid;
           d_round;
           post_token;
           service;
           payload = Bytes.of_string payload;
         }))

let token_gen =
  QCheck.Gen.(
    ring_gen >>= fun t_ring ->
    0 -- 1_000_000 >>= fun token_id ->
    0 -- 100_000 >>= fun t_round ->
    0 -- 1_000_000 >>= fun t_seq ->
    0 -- 1_000_000 >>= fun aru ->
    opt (0 -- 64) >>= fun aru_id ->
    0 -- 10_000 >>= fun fcc ->
    list_size (0 -- 100) (0 -- 1_000_000) >>= fun rtr ->
    return (Message.Token { t_ring; token_id; t_round; t_seq; aru; aru_id; fcc; rtr }))

let join_gen =
  QCheck.Gen.(
    0 -- 64 >>= fun j_pid ->
    list_size (0 -- 32) (0 -- 64) >>= fun proc_set ->
    list_size (0 -- 32) (0 -- 64) >>= fun fail_set ->
    0 -- 1000 >>= fun join_seq ->
    return (Message.Join { j_pid; proc_set; fail_set; join_seq }))

let member_gen =
  QCheck.Gen.(
    0 -- 64 >>= fun m_pid ->
    ring_gen >>= fun m_old_ring ->
    0 -- 100_000 >>= fun m_aru ->
    0 -- 100_000 >>= fun m_high_seq ->
    0 -- 100_000 >>= fun m_high_delivered ->
    return
      ({ m_pid; m_old_ring; m_aru; m_high_seq; m_high_delivered }
        : Message.member_info))

let commit_gen =
  QCheck.Gen.(
    ring_gen >>= fun c_ring ->
    0 -- 1000 >>= fun c_token_id ->
    1 -- 2 >>= fun c_pass ->
    list_size (0 -- 16) member_gen >>= fun c_memb ->
    return (Message.Commit { c_ring; c_token_id; c_pass; c_memb }))

let message_gen = QCheck.Gen.oneof [ data_gen; token_gen; join_gen; commit_gen ]

let message_arbitrary =
  QCheck.make message_gen ~print:(fun m -> Fmt.str "%a" Message.pp m)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips" ~count:500
    message_arbitrary (fun m ->
      let m' = roundtrip m in
      Message.encode m = Message.encode m')

let prop_wire_size_exact =
  QCheck.Test.make ~name:"wire_size equals encoded length" ~count:500
    message_arbitrary (fun m ->
      Message.wire_size m = Bytes.length (Message.encode m))

let prop_decode_truncated_fails =
  QCheck.Test.make ~name:"any strict prefix fails to decode cleanly" ~count:400
    QCheck.(pair message_arbitrary small_nat)
    (fun (m, cut_choice) ->
      let b = Message.encode m in
      let n = Bytes.length b in
      n = 0
      ||
      let cut = cut_choice mod n in
      match Message.decode_result (Bytes.sub b 0 cut) with
      | Ok _ -> false (* a strict prefix must never parse *)
      | Error _ -> true
      | exception _ -> false (* only Decode_error, mapped to Error *))

let prop_decode_bitflip_never_raises =
  QCheck.Test.make
    ~name:"bit-flipped encodings decode to Ok or Error, never raise"
    ~count:500
    QCheck.(triple message_arbitrary small_nat (int_range 0 7))
    (fun (m, byte_choice, bit) ->
      let b = Message.encode m in
      let i = byte_choice mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Message.decode_result b with
      | Ok _ | Error _ -> true (* some flips (e.g. payload bytes) are benign *)
      | exception _ -> false)

let prop_decode_garbage_never_raises =
  QCheck.Test.make ~name:"random bytes decode to Ok or Error, never raise"
    ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Message.decode_result (Bytes.of_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* -------------------------------------------------------------------- *)
(* Pooled codec: the zero-allocation paths must be byte-identical to the
   Buffer-based reference encoder and lose nothing on decode.            *)

(* One long-lived pool across all iterations — exactly the hot-path usage
   pattern, and it makes cross-message state leakage visible. *)
let shared_pool = Message.Pool.create ()

let prop_pooled_encode_matches_reference =
  QCheck.Test.make ~name:"pooled encode is byte-identical to reference"
    ~count:500 message_arbitrary (fun m ->
      let buf, len = Message.Pool.encode_view shared_pool m in
      Bytes.equal (Bytes.sub buf 0 len) (Message.encode m))

let prop_pooled_roundtrip =
  QCheck.Test.make ~name:"pooled encode_view/decode_sub round-trips"
    ~count:500 message_arbitrary (fun m ->
      let buf, len = Message.Pool.encode_view shared_pool m in
      Message.Pool.decode_sub shared_pool buf ~pos:0 ~len = m)

let test_codec_set_primitives () =
  let buf = Bytes.create 64 in
  let pos = Codec.set_u8 buf 0 200 in
  let pos = Codec.set_bool buf pos true in
  let pos = Codec.set_i32 buf pos (-123456) in
  let pos = Codec.set_i64 buf pos 0x1234_5678_9ABC_DEF in
  let pos = Codec.set_bytes buf pos (Bytes.of_string "hello") in
  let d = Codec.decoder_empty () in
  Codec.decoder_reset d buf ~pos:0 ~len:pos;
  check Alcotest.int "u8" 200 (Codec.read_u8 d);
  check Alcotest.bool "bool" true (Codec.read_bool d);
  check Alcotest.int "i32" (-123456) (Codec.read_i32 d);
  check Alcotest.int "i64" 0x1234_5678_9ABC_DEF (Codec.read_i64 d);
  check Alcotest.string "bytes" "hello" (Bytes.to_string (Codec.read_bytes d));
  Codec.expect_end d

let test_decoder_reset_bounds () =
  let d = Codec.decoder_empty () in
  let buf = Bytes.create 8 in
  Alcotest.check_raises "slice past end"
    (Invalid_argument "Codec.decoder_reset: slice out of bounds") (fun () ->
      Codec.decoder_reset d buf ~pos:4 ~len:8);
  Alcotest.check_raises "negative pos"
    (Invalid_argument "Codec.decoder_reset: slice out of bounds") (fun () ->
      Codec.decoder_reset d buf ~pos:(-1) ~len:2)

let test_header_overhead_positive () =
  check Alcotest.bool "header overhead sane" true
    (Message.header_overhead > 0 && Message.header_overhead < 128);
  check Alcotest.int "data_wire_size"
    (Message.header_overhead + 1350)
    (Message.data_wire_size ~payload_len:1350)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ("codec ints roundtrip", `Quick, test_codec_roundtrip_ints);
    ("codec truncation", `Quick, test_codec_truncation);
    ("codec trailing", `Quick, test_codec_trailing);
    ("codec u8 range", `Quick, test_codec_u8_range);
    ("data roundtrip", `Quick, test_roundtrip_data);
    ("token roundtrip", `Quick, test_roundtrip_token);
    ("token roundtrip (no aru_id)", `Quick, test_roundtrip_token_no_aru_id);
    ("join roundtrip", `Quick, test_roundtrip_join);
    ("commit roundtrip", `Quick, test_roundtrip_commit);
    ("unknown tag rejected", `Quick, test_unknown_tag);
    ("trailing bytes rejected", `Quick, test_decode_rejects_trailing);
    ("header overhead", `Quick, test_header_overhead_positive);
    ("codec set_* primitives", `Quick, test_codec_set_primitives);
    ("decoder_reset bounds", `Quick, test_decoder_reset_bounds);
    qtest prop_roundtrip;
    qtest prop_pooled_encode_matches_reference;
    qtest prop_pooled_roundtrip;
    qtest prop_wire_size_exact;
    qtest prop_decode_truncated_fails;
    qtest prop_decode_bitflip_never_raises;
    qtest prop_decode_garbage_never_raises;
  ]
