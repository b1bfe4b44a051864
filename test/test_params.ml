(* Parameter validation and constructor tests. *)

open Aring_ring

let check = Alcotest.check

let ok p =
  match Params.validate p with
  | Ok () -> true
  | Error _ -> false

let error_msg p =
  match Params.validate p with Ok () -> "<ok>" | Error m -> m

let test_defaults_valid () =
  check Alcotest.bool "default valid" true (ok Params.default);
  check Alcotest.bool "original valid" true (ok Params.original);
  check Alcotest.bool "snappy valid" true (ok Params.snappy);
  check Alcotest.bool "original is original" true (Params.is_original Params.original);
  check Alcotest.bool "default is not original" false (Params.is_original Params.default)

let test_invalid_windows () =
  check Alcotest.string "pw positive" "personal_window must be positive"
    (error_msg { Params.default with personal_window = 0 });
  check Alcotest.string "gw >= pw" "global_window must be at least personal_window"
    (error_msg { Params.default with personal_window = 50; global_window = 10 });
  check Alcotest.string "aw non-negative" "accelerated_window must be non-negative"
    (error_msg { Params.default with accelerated_window = -1 });
  check Alcotest.string "aw <= pw"
    "accelerated_window must not exceed personal_window"
    (error_msg { Params.default with personal_window = 10; accelerated_window = 20 });
  check Alcotest.string "gap >= gw" "max_seq_gap must be at least global_window"
    (error_msg { Params.default with max_seq_gap = 1 });
  check Alcotest.string "timeouts ordered"
    "token_loss_ns must exceed token_retransmit_ns"
    (error_msg { Params.default with token_loss_ns = 1 })

let test_engine_rejects_invalid () =
  let bad = { Params.default with personal_window = 0 } in
  let rid : Aring_wire.Types.ring_id = { rep = 0; ring_seq = 1 } in
  Alcotest.check_raises "create rejects invalid params"
    (Invalid_argument "Engine.create: personal_window must be positive")
    (fun () -> ignore (Engine.create ~params:bad ~ring_id:rid ~ring:[| 0 |] ~me:0));
  Alcotest.check_raises "create rejects absent pid"
    (Invalid_argument "Engine.create: me not in ring") (fun () ->
      ignore
        (Engine.create ~params:Params.default ~ring_id:rid ~ring:[| 0; 1 |] ~me:7))

let suite =
  [
    ("defaults valid", `Quick, test_defaults_valid);
    ("invalid windows rejected", `Quick, test_invalid_windows);
    ("engine rejects invalid params", `Quick, test_engine_rejects_invalid);
  ]
