(* A sink is a Flight subscriber; these adapt it to and from the record
   read out as a value. *)

type sink = Flight.subscriber

let fn_sink k : sink =
 fun ~ns ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i ->
  k { Flight.ns; node; code; a; b; c; d; e; f; g; h; i }

let feed (s : sink) (ev : Flight.event) =
  s ~ns:ev.ns ~node:ev.node ~code:ev.code ~a:ev.a ~b:ev.b ~c:ev.c ~d:ev.d ~e:ev.e
    ~f:ev.f ~g:ev.g ~h:ev.h ~i:ev.i

let with_sink s f =
  Flight.subscribe s;
  Fun.protect ~finally:(fun () -> Flight.unsubscribe s) f
