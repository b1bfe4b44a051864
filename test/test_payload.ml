(* App payload path tests: exact-size encoding of Op and Envelope
   (arithmetic size, allocation bound), decoding from read-only views
   (at any offset, never past the slice), delivery cost independent of
   payload size, and the lifetime of payload views parked by a slow
   receiver. *)

open Aring_wire
open Aring_ring
open Aring_daemon
open Aring_app

let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Generators                                                            *)

(* Values up to 3 KB: past 2 KB the shared encode scratch grows. *)
let value_gen = QCheck.Gen.(string_size ~gen:char (0 -- 3000))
let name_gen = QCheck.Gen.(string_size ~gen:printable (0 -- 12))

let op_gen =
  let open QCheck.Gen in
  let ring = map2 (fun rep ring_seq -> { Types.rep; ring_seq }) (0 -- 9) (0 -- 99) in
  oneof
    [
      map2 (fun key value -> Op.Put { key; value }) name_gen value_gen;
      map (fun key -> Op.Del { key }) name_gen;
      map3
        (fun key expect value -> Op.Cas { key; expect; value })
        name_gen (opt name_gen) value_gen;
      map2
        (fun view entries ->
          Op.Chunk { view; donor = 1; index = 0; total = 1; applied = 7; entries })
        ring
        (list_size (0 -- 4) (pair name_gen value_gen));
      map2
        (fun id checks ->
          Op.Mcas
            {
              id;
              parts = [ { mp_ring = 0; mp_checks = checks; mp_writes = [ (id, "w") ] } ];
            })
        name_gen
        (list_size (0 -- 3) (pair name_gen (opt name_gen)));
      map2
        (fun view parked ->
          Op.Mcas_table
            { view; donor = 2; entries = [ ("m1", 3) ]; parked = List.map Bytes.of_string parked })
        ring
        (list_size (0 -- 2) value_gen);
    ]

let app_gen =
  QCheck.Gen.(
    map3
      (fun sender groups payload ->
        Envelope.App { sender; groups; payload = Bytes.of_string payload })
      name_gen
      (list_size (0 -- 3) name_gen)
      value_gen)

let leaf_gen =
  let open QCheck.Gen in
  oneof
    [
      app_gen;
      map2 (fun member group -> Envelope.Join { member; group }) name_gen name_gen;
      map2 (fun member group -> Envelope.Leave { member; group }) name_gen name_gen;
    ]

let envelope_gen =
  QCheck.Gen.(
    frequency
      [ (3, leaf_gen); (1, map (fun l -> Envelope.Batch l) (list_size (0 -- 4) leaf_gen)) ])

let pp_envelope = Fmt.to_to_string Envelope.pp

(* An envelope as parsed, with its payload views copied out. *)
let rec owned : Envelope.parsed -> Envelope.t = function
  | Envelope.App { sender; groups; payload } ->
      Envelope.App { sender; groups; payload = Codec.view_to_bytes payload }
  | Envelope.Join { member; group } -> Envelope.Join { member; group }
  | Envelope.Leave { member; group } -> Envelope.Leave { member; group }
  | Envelope.Batch l -> Envelope.Batch (List.map owned l)

(* -------------------------------------------------------------------- *)
(* Encoding                                                              *)

let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size e = length (encode e)" ~count:300
    (QCheck.make ~print:pp_envelope envelope_gen) (fun e ->
      Envelope.encoded_size e = Bytes.length (Envelope.encode e))

let put_value = String.make 1024 'v'

(* The KV write path's encode: the op, then the envelope carrying it. *)
let encode_put () =
  Envelope.encode
    (Envelope.App
       {
         sender = "#kv#1";
         groups = [ Kv.group ];
         payload = Op.encode (Op.Put { key = "k00001"; value = put_value });
       })

(* Bytes allocated per call of [f], warm. The GC's counters are exact
   only after a minor collection, hence one at each end. *)
let alloc_bytes_per_call ~iters f =
  for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done;
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to iters do ignore (Sys.opaque_identity (f ())) done;
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int iters

let test_encode_put_alloc () =
  let b = alloc_bytes_per_call ~iters:1_000 encode_put in
  if b > 2_400. then
    Alcotest.failf "a 1,024 B put encodes with %.0f B allocated (bound 2,400)" b

(* -------------------------------------------------------------------- *)
(* Decoding from views                                                   *)

(* The property holds for [x] encoded at a random offset of a larger
   buffer, with garbage on both sides: decoded from its view it equals
   the value decoded from its exact bytes, and a view one byte short or
   one byte long is rejected, so the decoder never reads past its slice. *)
let prop_views (type a) ~name (gen : a QCheck.Gen.t) ~print
    ~(encode : a -> bytes) ~(exact : bytes -> a) ~(from : Codec.decoder -> a) =
  let garbage = QCheck.Gen.(string_size ~gen:char (1 -- 40)) in
  QCheck.Test.make ~name ~count:300
    (QCheck.make
       ~print:(fun (x, pre, post) ->
         Printf.sprintf "%s (%d B before, %d after)" (print x) (String.length pre)
           (String.length post))
       QCheck.Gen.(triple gen garbage garbage))
    (fun (x, pre, post) ->
      let b = encode x in
      let buf = Bytes.of_string (pre ^ Bytes.to_string b ^ post) in
      let pos = String.length pre and len = Bytes.length b in
      let dec = Codec.decoder_empty () in
      let at len =
        Codec.decoder_reset_view dec (Codec.view buf ~pos ~len);
        from dec
      in
      let rejects len =
        match at len with _ -> false | exception Codec.Decode_error _ -> true
      in
      at len = exact b && rejects (len - 1) && rejects (len + 1))

let prop_op_views =
  prop_views ~name:"op decoded in place from a view at any offset" op_gen
    ~print:(Fmt.to_to_string Op.pp) ~encode:Op.encode ~exact:Op.decode
    ~from:Op.decode_from

(* One name table across every case, as a daemon keeps one: names seen
   in earlier cases come back from it. *)
let prop_envelope_views =
  let names = Envelope.names () in
  prop_views ~name:"envelope parsed in place from a view at any offset"
    envelope_gen ~print:pp_envelope ~encode:Envelope.encode
    ~exact:Envelope.decode ~from:(fun d -> owned (Envelope.parse names d))

(* -------------------------------------------------------------------- *)
(* Delivery                                                              *)

let ring_size = 4

(* One operational member of a 4-member ring with a daemon on it, and
   [feed], which hands the daemon in-order data from pid 1 with a
   caught-up token every 256 messages (and on [flush]), so the engine's
   retention stays bounded. *)
let make_daemon () =
  let m =
    Member.create ~params:Params.default ~me:0
      ~initial_ring:(Array.init ring_size Fun.id) ()
  in
  ignore ((Member.participant m).start ());
  let rid =
    match Member.node m with
    | Some node -> Engine.ring_id (Node.engine node)
    | None -> Alcotest.fail "a member with an initial ring starts operational"
  in
  let d = Daemon.create ~member:m () in
  let p = Daemon.participant d in
  let seq = ref 0 and token_id = ref 0 in
  let token () =
    token_id := !token_id + ring_size;
    ignore
      (p.process
         (Message.Token
            {
              t_ring = rid;
              token_id = !token_id;
              t_round = 1;
              t_seq = !seq;
              aru = !seq;
              aru_id = None;
              fcc = 0;
              rtr = [];
            }))
  in
  let data payload : Message.data =
    incr seq;
    { d_ring = rid; seq = !seq; pid = 1; d_round = 1; post_token = false;
      service = Types.Agreed; payload }
  in
  let feed (msg : Message.data) =
    ignore (p.process (Message.Data msg));
    if !seq land 255 = 0 then token ()
  in
  let flush () =
    token ();
    token ()
  in
  (m, d, data, feed, flush)

let drain m =
  match Member.node m with
  | Some node -> ignore (Engine.drain_pending (Node.engine node))
  | None -> ()

let app_envelope payload =
  Envelope.encode (Envelope.App { sender = "#src#1"; groups = [ "g" ]; payload })

let quiet =
  {
    Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
    on_group_view = (fun ~group:_ ~members:_ -> ());
  }

let deliver_bytes payload_bytes =
  let m, d, data, feed, _ = make_daemon () in
  let s = Daemon.connect d ~name:"rx" quiet in
  Daemon.join d s "g";
  drain m;
  let env = app_envelope (Bytes.make payload_bytes 'p') in
  alloc_bytes_per_call ~iters:4_096 (fun () -> feed (data env))

let test_deliver_alloc_flat () =
  let small = deliver_bytes 64 and large = deliver_bytes 1_024 in
  if Float.abs (large -. small) > 32. then
    Alcotest.failf
      "delivery allocates %.0f B at 64 B and %.0f B at 1,024 B: the payload is copied"
      small large

let test_parked_views_outlive_messages () =
  let m, d, data, feed, flush = make_daemon () in
  let got = ref [] in
  let s =
    Daemon.connect d ~name:"slow"
      {
        quiet with
        Daemon.on_message =
          (fun ~sender:_ ~groups:_ _ payload ->
            got := Codec.view_to_string payload :: !got);
      }
  in
  Daemon.join d s "g";
  drain m;
  Daemon.set_slow_receiver d s true;
  let n = 1_000 in
  let sent =
    List.init n (fun i ->
        String.init (1 + (i * 7 mod 1500)) (fun j -> Char.chr ((i + j) land 0xFF)))
  in
  let collected = ref 0 in
  List.iter
    (fun p ->
      let msg = data (app_envelope (Bytes.of_string p)) in
      Gc.finalise_last (fun () -> incr collected) msg;
      feed msg)
    sent;
  flush ();
  Gc.full_major ();
  check Alcotest.int "parked" n (Daemon.inbox_depth d s);
  check Alcotest.int "the engine's messages are collected" n !collected;
  check Alcotest.int "pumped" n (Daemon.pump d s ~max:n);
  check Alcotest.bool "every payload byte-identical" true (List.rev !got = sent)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encoded_size;
    Alcotest.test_case "1 KB put encodes within 2,400 B" `Quick test_encode_put_alloc;
    QCheck_alcotest.to_alcotest prop_op_views;
    QCheck_alcotest.to_alcotest prop_envelope_views;
    Alcotest.test_case "delivery allocation independent of payload size" `Quick
      test_deliver_alloc_flat;
    Alcotest.test_case "parked views outlive the engine's messages" `Quick
      test_parked_views_outlive_messages;
  ]
