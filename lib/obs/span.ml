(* End-to-end latency spans: each message is stamped with the virtual
   time of its submission, and stage transitions are folded into
   per-stage mergeable histograms of the {!Metrics} registry:

     submit -> packed         span.submit_wait_us  (daemon pack buffer)
     submit -> token-ordered  span.order_us        (queueing + flow control)
     ordered -> delivered     span.deliver_us      (propagation + stability)
     delivered -> applied     span.apply_us        (app apply, synchronous)
     submit -> delivered      span.e2e_us

   A collector is opt-in and scoped: [with_span] makes it active for one
   call, and collectors nest, each seeing every record of its window
   (like health watchdogs, which are plain subscribers). The order,
   deliver and apply stages come from the Flight recorder: an active
   collector's [on_record] is subscribed, decoding the engine's
   data-send (carrying the submit stamp) and deliver records and the
   replica's apply record. The deliver stage reads the engine's
   [ev_deliver], one per ordered message, not the per-session
   [ev_app_deliver] copies a daemon hands on. The daemon's pack step has
   no Flight record and calls [note_packed] directly, which reaches
   every active collector. With none active, the engine stamps nothing
   and nothing is subscribed. Spans record nothing themselves, so
   pinned corpus hashes are unaffected. In-flight bookkeeping
   is bounded: the (sender, seq) table is emptied if it ever exceeds
   [max_inflight] entries, trading a few lost samples for a hard memory
   cap. [Hashtbl.clear] keeps the grown bucket array, so the table does
   not regrow after each emptying. *)

let max_inflight = 1 lsl 16

let stage_submit_wait = "span.submit_wait_us"
let stage_order = "span.order_us"
let stage_deliver = "span.deliver_us"
let stage_apply = "span.apply_us"
let stage_e2e = "span.e2e_us"

let stage_names =
  [ stage_submit_wait; stage_order; stage_deliver; stage_apply; stage_e2e ]

type t = {
  sp_metrics : Metrics.t;
  h_submit_wait : Metrics.histogram;
  h_order : Metrics.histogram;
  h_deliver : Metrics.histogram;
  h_apply : Metrics.histogram;
  h_e2e : Metrics.histogram;
  inflight : (int, int * int) Hashtbl.t;  (* key -> (submit_ns, ordered_ns) *)
  mutable deliver_ns : int array;  (* per node: ns of the delivery being processed *)
}

let create ?metrics () =
  let reg = match metrics with Some m -> m | None -> Metrics.create () in
  {
    sp_metrics = reg;
    h_submit_wait = Metrics.histogram reg stage_submit_wait;
    h_order = Metrics.histogram reg stage_order;
    h_deliver = Metrics.histogram reg stage_deliver;
    h_apply = Metrics.histogram reg stage_apply;
    h_e2e = Metrics.histogram reg stage_e2e;
    inflight = Hashtbl.create 1024;
    deliver_ns = Array.make 16 (-1);
  }

let metrics t = t.sp_metrics

(* ------------------------------------------------------------------ *)
(* Active collectors                                                   *)

(* Innermost first; [with_span] pushes on entry and restores on exit. *)
let active : t list ref = ref []

(* ------------------------------------------------------------------ *)
(* Stage notes                                                         *)

(* Submission stamp carried by the engine's pending entry; 0 ("no
   stamp") when no collector is active, so a disabled run pays only
   this ref read per submit. *)
let submit_stamp () = match !active with [] -> 0 | _ :: _ -> Flight.now ()

(* seq fits comfortably below 2^44 in any simulated run; sender pids are
   small ints. *)
let key ~sender ~seq = (sender lsl 44) lor (seq land ((1 lsl 44) - 1))

let rec observe_packed ~submit_ns = function
  | [] -> ()
  | t :: rest ->
      Metrics.observe_ns t.h_submit_wait (Flight.now () - submit_ns);
      observe_packed ~submit_ns rest

let note_packed ~submit_ns =
  if submit_ns > 0 then observe_packed ~submit_ns !active

let on_ordered t ~sender ~seq ~submit_ns =
  let now = Flight.now () in
  Metrics.observe_ns t.h_order (now - submit_ns);
  if Hashtbl.length t.inflight >= max_inflight then Hashtbl.clear t.inflight;
  Hashtbl.replace t.inflight (key ~sender ~seq) (submit_ns, now)

let ensure_node t node =
  if node >= Array.length t.deliver_ns then begin
    let grown = Array.make (max (node + 1) (2 * Array.length t.deliver_ns)) (-1) in
    Array.blit t.deliver_ns 0 grown 0 (Array.length t.deliver_ns);
    t.deliver_ns <- grown
  end

let on_delivered t ~node ~sender ~seq =
  let now = Flight.now () in
  if node >= 0 then begin
    ensure_node t node;
    t.deliver_ns.(node) <- now
  end;
  match Hashtbl.find t.inflight (key ~sender ~seq) with
  | submit_ns, ordered_ns ->
      Metrics.observe_ns t.h_deliver (now - ordered_ns);
      Metrics.observe_ns t.h_e2e (now - submit_ns)
  | exception Not_found -> ()

let on_applied t ~node =
  if node >= 0 && node < Array.length t.deliver_ns && t.deliver_ns.(node) >= 0
  then Metrics.observe_ns t.h_apply (Flight.now () - t.deliver_ns.(node))

(* One collector's feed: decode the Flight records the spans need
   (argument layouts in flight.mli). A data-send record carries a
   non-zero submit stamp only for a new message stamped while some
   collector was active. *)
let on_record t ~ns:_ ~node ~code ~a ~b ~c:_ ~d ~e:_ ~f:_ ~g:_ ~h:_ ~i:_ =
  if code = Flight.ev_data_send then begin
    if d > 0 then on_ordered t ~sender:node ~seq:a ~submit_ns:d
  end
  else if code = Flight.ev_deliver then on_delivered t ~node ~sender:b ~seq:a
  else if code = Flight.ev_apply then on_applied t ~node

let with_span t f =
  let sink = on_record t and enclosing = !active in
  active := t :: enclosing;
  Flight.subscribe sink;
  Fun.protect
    ~finally:(fun () ->
      Flight.unsubscribe sink;
      active := enclosing)
    f

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type stage_report = {
  stage : string;
  count : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

(* Stage quantiles from any registry holding span histograms — works on
   a live collector's registry and on merged cross-node registries
   alike. Stages with no samples are omitted. *)
let report_of_metrics reg =
  List.filter_map
    (fun stage ->
      match
        List.assoc_opt stage (Metrics.histograms reg)
      with
      | Some h when Metrics.hist_count h > 0 ->
          Some
            {
              stage;
              count = Metrics.hist_count h;
              p50_us = Metrics.hist_quantile h 0.5;
              p99_us = Metrics.hist_quantile h 0.99;
              p999_us = Metrics.hist_quantile h 0.999;
            }
      | _ -> None)
    stage_names

let report t = report_of_metrics t.sp_metrics

let pp_report ppf reports =
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s n=%-8d p50=%8.1fus p99=%8.1fus p99.9=%8.1fus@."
        r.stage r.count r.p50_us r.p99_us r.p999_us)
    reports
