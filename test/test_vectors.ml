(* Golden-vector wall for the wire format.

   [vectors/frames.bin] holds the committed encoding of every message
   variant in [Vectors_def.all], captured from the Buffer-based encoder
   BEFORE the pooled codec existed. Every run asserts that both encoders
   still reproduce those bytes exactly and that decoding loses nothing —
   any change to the wire format, intended or not, fails here first.

   Regenerate (only on a deliberate format change) with:
     dune exec test/gen_vectors.exe *)

open Aring_wire
module V = Aring_test_vectors.Vectors_def

let frames = lazy (V.read_file "vectors/frames.bin")
let pool = Message.Pool.create ()

let iter2_vectors f =
  let frames = Lazy.force frames in
  Alcotest.(check int)
    "frame count matches vector definitions" (List.length V.all)
    (List.length frames);
  List.iter2 (fun (name, m) frame -> f name m frame) V.all frames

let test_reference_encoder_bytes () =
  iter2_vectors (fun name m frame ->
      Alcotest.(check bool)
        (name ^ ": reference encode reproduces committed bytes")
        true
        (Bytes.equal (Message.encode m) frame))

(* [pool]'s encoding of [m] is [frame], byte for byte. *)
let check_encode_view pool name m frame =
  let buf, len = Message.Pool.encode_view pool m in
  Alcotest.(check bool)
    (name ^ ": encode_view reproduces committed bytes")
    true
    (len = Bytes.length frame && Bytes.equal (Bytes.sub buf 0 len) frame)

let test_pooled_encoder_bytes () = iter2_vectors (check_encode_view pool)

let test_scratch_encoder_bytes () =
  (* A pool over a deliberately tiny scratch, so every vector also
     exercises grow-in-place doubling. *)
  iter2_vectors (check_encode_view (Message.Pool.create ~initial_capacity:16 ()))

let test_lossless_decode () =
  iter2_vectors (fun name m frame ->
      Alcotest.(check bool)
        (name ^ ": decode is lossless")
        true
        (Message.decode frame = m);
      (* Pooled decode of the frame embedded mid-buffer, as it arrives in a
         receive buffer. *)
      let padded =
        Bytes.concat Bytes.empty
          [ Bytes.make 7 '\xAA'; frame; Bytes.make 5 '\xBB' ]
      in
      Alcotest.(check bool)
        (name ^ ": pooled decode_sub is lossless")
        true
        (Message.Pool.decode_sub pool padded ~pos:7 ~len:(Bytes.length frame)
        = m))

let suite =
  [
    ("reference encoder matches golden bytes", `Quick, test_reference_encoder_bytes);
    ("pooled encoder matches golden bytes", `Quick, test_pooled_encoder_bytes);
    ("scratch encoder matches golden bytes", `Quick, test_scratch_encoder_bytes);
    ("golden frames decode losslessly", `Quick, test_lossless_decode);
  ]
