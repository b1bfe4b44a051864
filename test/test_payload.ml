(* App payload path tests: exact-size encoding of Op and Envelope
   (arithmetic size, allocation bound), the one-pass write path (a
   daemon's frames byte-identical to the reference encoders, packed or
   not, and the load generator's keys and values to their [Printf]
   forms), decoding from read-only views (at any offset, never past the
   slice), delivery cost independent of payload size, and the lifetime
   of payload views parked by a slow receiver. *)

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
      map3
        (fun reader nonce key -> Op.Sync_read { reader; nonce; key })
        name_gen (0 -- 100_000) name_gen;
      map3
        (fun view applied synced ->
          Op.Hello { view; daemon = 3; applied; digest = 0x1234_5678_9abcL; synced })
        ring (0 -- 100_000) bool;
      map2 (fun id commit -> Op.Mdecide { id; commit }) name_gen bool;
      map (fun upto -> Op.Skip { upto }) (0 -- 1_000);
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
(* One-pass write path                                                   *)

let quiet =
  {
    Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
    on_group_view = (fun ~group:_ ~members:_ -> ());
  }

(* A daemon on an operational one-member ring: what it submits lands in
   the engine's pending queue, where [submitted] flushes the daemon and
   reads it back. *)
let single_daemon ?pack_threshold () =
  let m = Member.create ~params:Params.default ~me:0 ~initial_ring:[| 0 |] () in
  ignore ((Member.participant m).start ());
  let d = Daemon.create ?pack_threshold ~member:m () in
  let submitted () =
    Daemon.flush d;
    match Member.node m with
    | Some node -> Engine.drain_pending (Node.engine node)
    | None -> Alcotest.fail "a member with an initial ring starts operational"
  in
  (d, submitted)

let groups_gen = QCheck.Gen.(list_size (0 -- 3) name_gen)

(* The reference frame of an op multicast by [sender]. *)
let app_of sender groups op = Envelope.App { sender; groups; payload = Op.encode op }

let prop_one_pass_app =
  QCheck.Test.make ~name:"one-pass App frame equals the reference encode" ~count:300
    (QCheck.make
       ~print:(fun (session, groups, op) ->
         Printf.sprintf "%S -> [%s] %s" session (String.concat "," groups)
           (Fmt.to_to_string Op.pp op))
       QCheck.Gen.(triple name_gen groups_gen op_gen))
    (fun (session, groups, op) ->
      let d, submitted = single_daemon () in
      let s = Daemon.connect d ~name:session quiet in
      Daemon.multicast_write d s ~groups Op.write op;
      let sender = Daemon.session_member_name d s in
      submitted () = [ (Types.Agreed, Envelope.encode (app_of sender groups op)) ])

(* One client write in a packing schedule: an op from one of three
   sessions, its service, and whether a flush follows it. *)
type packed_write = { pw_session : int; pw_safe : bool; pw_op : Op.t; pw_flush : bool }

let packed_write_gen =
  QCheck.Gen.(
    map
      (fun (pw_session, pw_safe, pw_op, pw_flush) -> { pw_session; pw_safe; pw_op; pw_flush })
      (quad (0 -- 2) bool op_gen (map (fun n -> n = 0) (0 -- 5))))

(* A reference packer over built envelopes: each buffered by its
   [Envelope.encoded_size], and each flush encoding a Batch of two or
   more, or the single envelope, with [Envelope.encode]. *)
let reference_packer ~threshold writes =
  let out = ref [] and buffer = ref [] and bytes = ref 0 and service = ref Types.Agreed in
  let submit sv env = out := (sv, Envelope.encode env) :: !out in
  let flush () =
    (match !buffer with
    | [] -> ()
    | [ env ] -> submit !service env
    | entries -> submit !service (Envelope.Batch (List.rev entries)));
    buffer := [];
    bytes := 0
  in
  List.iter
    (fun (sv, env, then_flush) ->
      let size = Envelope.encoded_size env in
      if (!buffer <> [] && not (Types.service_equal sv !service)) || !bytes + size > threshold
      then flush ();
      if size >= threshold then submit sv env
      else begin
        service := sv;
        buffer := env :: !buffer;
        bytes := !bytes + size
      end;
      if then_flush then flush ())
    writes;
  flush ();
  List.rev !out

let prop_packed_frames =
  QCheck.Test.make ~name:"packed flushes equal the reference Batch encode" ~count:200
    (QCheck.make
       ~print:(fun (threshold, writes) ->
         Printf.sprintf "threshold %d: %s" threshold
           (String.concat "; "
              (List.map
                 (fun w ->
                   Printf.sprintf "s%d %s %s%s" w.pw_session
                     (if w.pw_safe then "safe" else "agreed")
                     (Fmt.to_to_string Op.pp w.pw_op)
                     (if w.pw_flush then " flush" else ""))
                 writes)))
       QCheck.Gen.(pair (oneofl [ 40; 300; 1300; 5000; 1 lsl 30 ]) (list_size (1 -- 12) packed_write_gen)))
    (fun (threshold, writes) ->
      let d, submitted = single_daemon ~pack_threshold:threshold () in
      let sessions =
        Array.init 3 (fun i -> Daemon.connect d ~name:(Printf.sprintf "s%d" i) quiet)
      in
      let expected =
        List.map
          (fun w ->
            let s = sessions.(w.pw_session) in
            let service = if w.pw_safe then Types.Safe else Types.Agreed in
            Daemon.multicast_write d s ~service ~groups:[ Kv.group ] Op.write w.pw_op;
            if w.pw_flush then Daemon.flush d;
            (service, app_of (Daemon.session_member_name d s) [ Kv.group ] w.pw_op, w.pw_flush))
          writes
      in
      Daemon.flush d;
      submitted () = reference_packer ~threshold expected)

let test_flush_of_one_and_many () =
  let d, submitted = single_daemon ~pack_threshold:(1 lsl 30) () in
  let s = Daemon.connect d ~name:"kv" quiet in
  let op i = Op.Put { key = Printf.sprintf "k%d" i; value = "v" } in
  let sender = Daemon.session_member_name d s in
  Daemon.multicast_write d s ~groups:[ Kv.group ] Op.write (op 0);
  Daemon.flush d;
  check Alcotest.bool "one entry: the plain frame" true
    (submitted () = [ (Types.Agreed, Envelope.encode (app_of sender [ Kv.group ] (op 0))) ]);
  for i = 1 to 3 do
    Daemon.multicast_write d s ~groups:[ Kv.group ] Op.write (op i)
  done;
  Daemon.flush d;
  check Alcotest.bool "three entries: one Batch" true
    (submitted ()
    = [
        ( Types.Agreed,
          Envelope.encode
            (Envelope.Batch (List.init 3 (fun i -> app_of sender [ Kv.group ] (op (i + 1))))) );
      ])

let test_failed_write_submits_nothing () =
  let d, submitted = single_daemon ~pack_threshold:1300 () in
  let s = Daemon.connect d ~name:"kv" quiet in
  let ok = Op.Put { key = "k"; value = "v" } in
  Daemon.multicast_write d s ~groups:[ "g" ] Op.write ok;
  (match Daemon.multicast_write d s ~groups:[ "g" ] Op.write (Op.Skip { upto = 1 lsl 40 }) with
  | () -> Alcotest.fail "an out-of-range field must raise"
  | exception Invalid_argument _ -> ());
  Daemon.flush d;
  check Alcotest.bool "only the good write, as it was" true
    (submitted ()
    = [ (Types.Agreed, Envelope.encode (app_of (Daemon.session_member_name d s) [ "g" ] ok)) ])

let int_gen = QCheck.Gen.(oneof [ int; oneofl [ 0; -1; 9; 10; min_int; max_int ]; 0 -- 100_000 ])

let prop_tagged_value =
  QCheck.Test.make ~name:"Load's tagged value equals its Printf form" ~count:500
    (QCheck.make
       ~print:(fun (c, a, b, bytes) -> Printf.sprintf "%c %d %d %d" c a b bytes)
       QCheck.Gen.(quad (oneofl [ 'w'; 'c'; 'x' ]) int_gen int_gen (0 -- 1200)))
    (fun (c, a, b, bytes) ->
      let prefix, suffix = if c = 'x' then ("x:m:", "a:") else (Printf.sprintf "%c:" c, "") in
      Aring_load.Load.tagged_value prefix a b suffix bytes
      = Kv_scenario.pad (Printf.sprintf "%s%d:%d:%s" prefix a b suffix) bytes)

let test_key_table () =
  let keys = Aring_load.Load.key_table 123_456 in
  check Alcotest.int "one per key" 123_456 (Array.length keys);
  Array.iteri
    (fun i k -> if k <> Printf.sprintf "k%05d" i then Alcotest.failf "key %d is %S" i k)
    keys

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
(* Own-write matcher                                                     *)

(* Write ops over a small alphabet, so that two draws often share a field
   or are equal, with a long value now and then. *)
let field_gen =
  QCheck.Gen.(
    frequency
      [ (4, oneofl [ ""; "a"; "b"; "ab" ]); (2, string_size ~gen:char (0 -- 8));
        (1, value_gen) ])

let write_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun key value -> Op.Put { key; value }) field_gen field_gen;
        map (fun key -> Op.Del { key }) field_gen;
        map3
          (fun key expect value -> Op.Cas { key; expect; value })
          field_gen (opt field_gen) field_gen;
      ])

(* Ops one field away from [p]: another kind over its key, or one string
   grown by a byte. *)
let near p =
  let key, value =
    match p with
    | Op.Put { key; value } | Op.Cas { key; value; _ } -> (key, value)
    | _ -> ("", "")
  in
  QCheck.Gen.oneofl
    [
      Op.Put { key; value };
      Op.Del { key };
      Op.Cas { key; expect = None; value };
      Op.Cas { key; expect = Some value; value };
      Op.Put { key = key ^ "a"; value };
      Op.Put { key; value = value ^ "\000" };
    ]

(* [(o, p)]: [o] is a decoded copy of [p] (equal, never the same
   strings), an op near it, or an independent draw. *)
let write_pair_gen =
  QCheck.Gen.(
    write_gen >>= fun p ->
    map
      (fun o -> (o, p))
      (frequency
         [ (2, return (Op.decode (Op.encode p))); (2, near p); (1, write_gen) ]))

(* A decoder over exactly [b], placed between garbage in a larger
   buffer. *)
let decoder_over ~pre ~post b =
  let buf = Bytes.of_string (pre ^ Bytes.to_string b ^ post) in
  let dec = Codec.decoder_empty () in
  Codec.decoder_reset_view dec
    (Codec.view buf ~pos:(String.length pre) ~len:(Bytes.length b));
  dec

let garbage_gen = QCheck.Gen.(string_size ~gen:char (0 -- 16))
let print_op = Fmt.to_to_string Op.pp

let prop_matcher_exact =
  QCheck.Test.make ~name:"matcher accepts a write's encoding exactly when equal"
    ~count:500
    (QCheck.make
       ~print:(fun ((o, p), _, _) -> print_op o ^ " against " ^ print_op p)
       QCheck.Gen.(triple write_pair_gen garbage_gen garbage_gen))
    (fun ((o, p), pre, post) ->
      let dec = decoder_over ~pre ~post (Op.encode p) in
      let at = Codec.decoder_pos dec in
      Op.starts_write dec
      && Op.matches dec o = (o = p)
      && Codec.decoder_pos dec = at
      && Op.decode_from dec = p)

(* Rejections, none of which may raise: a non-write op's encoding, a
   write's encoding cut short, and random bytes (accepted only if they
   happen to decode to the op). *)
let prop_matcher_rejects =
  let non_write_gen =
    QCheck.Gen.map
      (function
        | (Op.Put _ | Op.Del _ | Op.Cas _) -> Op.Skip { upto = 3 } | op -> op)
      op_gen
  in
  QCheck.Test.make ~name:"matcher rejects other ops, cut writes and garbage"
    ~count:300
    (QCheck.make
       ~print:(fun (o, n, _, r) ->
         Printf.sprintf "%s; %s; %d random bytes" (print_op o) (print_op n)
           (String.length r))
       QCheck.Gen.(
         quad write_gen non_write_gen (0 -- 1_000)
           (map2
              (fun tag r -> Option.fold ~none:r ~some:(fun c -> String.make 1 c ^ r) tag)
              (opt (oneofl [ '\001'; '\002'; '\003' ]))
              (string_size ~gen:char (0 -- 64)))))
    (fun (o, n, cut, r) ->
      let against b = Op.matches (decoder_over ~pre:"x" ~post:"y" b) o in
      let own = Op.encode o in
      let len = Bytes.length own in
      let cuts =
        List.filter (fun k -> k < len)
          (List.sort_uniq compare [ 0; 1; 4; 5; len / 2; len - 1; cut mod len ])
      in
      let r = Bytes.of_string r in
      let decodes_to_o =
        match Op.decode r with x -> x = o | exception Codec.Decode_error _ -> false
      in
      (not (against (Op.encode n)))
      && (not (Op.starts_write (decoder_over ~pre:"" ~post:"" (Op.encode n))))
      && List.for_all (fun k -> not (against (Bytes.sub own 0 k))) cuts
      && against r = decodes_to_o)

(* A match, taken or refused at any field, allocates nothing. *)
let test_matcher_alloc_free () =
  let dec = decoder_over ~pre:"" ~post:"" (Op.encode (Op.Put { key = "k"; value = put_value })) in
  let ops =
    [ Op.Put { key = "k"; value = put_value };
      Op.Put { key = "k"; value = String.make 1024 'w' };
      Op.Cas { key = "k"; expect = Some "x"; value = put_value };
      Op.Del { key = "k" } ]
  in
  List.iter
    (fun op ->
      let expected = Op.matches dec op in
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        if Op.matches dec op <> expected then Alcotest.fail "matcher not deterministic"
      done;
      check (Alcotest.float 0.) (Fmt.str "words per match of %a" Op.pp op) 0.
        (Gc.minor_words () -. before))
    ops

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
  (* 250 frames of 1 to 1,500 B payload, ~190 KB in all: under the
     inbox limit, so every one parks. *)
  let n = 250 in
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
  check Alcotest.bool "within the inbox limit" true
    (Daemon.inbox_bytes d s <= Daemon.slow_inbox_limit_bytes);
  check Alcotest.int "the engine's messages are collected" n !collected;
  check Alcotest.int "pumped" n (Daemon.pump d s ~max:n);
  check Alcotest.bool "every payload byte-identical" true (List.rev !got = sent)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encoded_size;
    Alcotest.test_case "1 KB put encodes within 2,400 B" `Quick test_encode_put_alloc;
    QCheck_alcotest.to_alcotest prop_one_pass_app;
    QCheck_alcotest.to_alcotest prop_packed_frames;
    Alcotest.test_case "a flush of one entry is plain, of several a Batch" `Quick
      test_flush_of_one_and_many;
    Alcotest.test_case "a write that raises submits nothing" `Quick
      test_failed_write_submits_nothing;
    QCheck_alcotest.to_alcotest prop_tagged_value;
    Alcotest.test_case "key table equals its Printf form" `Quick test_key_table;
    QCheck_alcotest.to_alcotest prop_op_views;
    QCheck_alcotest.to_alcotest prop_envelope_views;
    Alcotest.test_case "delivery allocation independent of payload size" `Quick
      test_deliver_alloc_flat;
    Alcotest.test_case "parked views outlive the engine's messages" `Quick
      test_parked_views_outlive_messages;
    QCheck_alcotest.to_alcotest prop_matcher_exact;
    QCheck_alcotest.to_alcotest prop_matcher_rejects;
    Alcotest.test_case "matcher allocates nothing" `Quick test_matcher_alloc_free;
  ]
