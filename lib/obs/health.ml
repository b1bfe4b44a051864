(* Health watchdog: per-node membership-phase accounting (time-in-state,
   entry counters, recovery volume) plus a stall detector. Two
   triggers:

   - Formation_cycle: a node has started [k_formation] gather phases
     since it last reached operational, while *no* node anywhere has
     completed a formation for [stall_ns] of virtual time — the
     signature of a formation livelock, where every attempt dies before
     its install and re-gathers forever.
     The no-install gate is load-bearing: under sustained loss a ring
     churns through formations with a few unlucky nodes legitimately
     burning long runs of attempts, but as long as configurations keep
     installing somewhere (dozens of views per second in such runs),
     that is retry behavior working, not a livelock. Delivery idleness
     would be the wrong gate — in the post-horizon drain an already
     drained ring delivers nothing while it churns toward the final
     merge.
   - No_progress: no message delivered anywhere for [stall_ns] of
     virtual time while some live node is stuck outside operational —
     e.g. a ring stuck in Recover, its token asking for a recovery
     message nobody can send.

   A watchdog is a plain Flight subscriber, and several count side by
   side. Its one feed is the Flight recorder: subscribing [as_sink]
   (e.g. with [Trace.with_sink]) decodes the phase, flood, dedup,
   deliver, crash and session-cut records; a run
   with no watchdog subscribed pays nothing per record. It records
   nothing itself — pinned corpus hashes cannot see it. Deliveries are
   the engine's [ev_deliver], one per ordered message: a daemon handing
   one delivery to several local sessions does not count it twice. *)

let default_k_formation = 8
let stall_ns = 1_000_000_000

(* ------------------------------------------------------------------ *)
(* Phase codes (Flight's ev_phase argument, 0 to 3)                    *)

let n_phases = 4

(* The trail extends the phase codes with a node's crash. *)
let trail_crash = 4

let phase_name = function 4 -> "crashed" | code -> Flight.phase_name code

let trail_capacity = 64

type node_state = {
  mutable ns_phase : int;  (* current phase code; trail_crash once dead *)
  mutable ns_phase_since : int;
  ns_time_in : int array;  (* ns accumulated per phase, length n_phases *)
  ns_entries : int array;  (* lifetime phase entries, length n_phases *)
  mutable ns_attempts : int;  (* gather entries since last operational *)
  mutable ns_max_attempts : int;  (* peak ns_attempts over the node's lifetime *)
  mutable ns_floods : int;  (* recovery messages sent since last operational *)
  (* Lifetime recovery-traffic counters (never reset): the dedup
     efficiency the recovery bench gates on. *)
  mutable ns_flood_total : int;  (* old-ring messages re-sent as recovery data *)
  mutable ns_dedup_saved : int;  (* sends avoided by designated-holder dedup *)
  mutable ns_session_cuts : int;  (* slow sessions its daemon cut *)
  trail : int array;  (* recent trail codes, ring *)
  trail_ns : int array;
  mutable trail_next : int;
  mutable trail_total : int;
}

type t = {
  k_formation : int;
  nodes : node_state array;
  mutable last_delivery_ns : int;
  mutable last_operational_ns : int;
  mutable deliveries : int;
}

let create ?(k_formation = default_k_formation) ~n () =
  if n <= 0 then invalid_arg "Health.create: n must be > 0";
  {
    k_formation;
    nodes =
      Array.init n (fun _ ->
          {
            ns_phase = -1;
            ns_phase_since = 0;
            ns_time_in = Array.make n_phases 0;
            ns_entries = Array.make n_phases 0;
            ns_attempts = 0;
            ns_max_attempts = 0;
            ns_floods = 0;
            ns_flood_total = 0;
            ns_dedup_saved = 0;
            ns_session_cuts = 0;
            trail = Array.make trail_capacity (-1);
            trail_ns = Array.make trail_capacity 0;
            trail_next = 0;
            trail_total = 0;
          });
    last_delivery_ns = 0;
    last_operational_ns = 0;
    deliveries = 0;
  }

(* ------------------------------------------------------------------ *)
(* Feed                                                                *)

let push_trail ns code now =
  ns.trail.(ns.trail_next) <- code;
  ns.trail_ns.(ns.trail_next) <- now;
  ns.trail_next <- (ns.trail_next + 1) mod trail_capacity;
  ns.trail_total <- ns.trail_total + 1

let close_phase ns now =
  if ns.ns_phase >= 0 && ns.ns_phase < n_phases then
    ns.ns_time_in.(ns.ns_phase) <-
      ns.ns_time_in.(ns.ns_phase) + max 0 (now - ns.ns_phase_since)

let on_phase t ns phase =
  if ns.ns_phase <> trail_crash then begin
    let now = Flight.now () in
    close_phase ns now;
    ns.ns_phase <- phase;
    ns.ns_phase_since <- now;
    if phase >= 0 && phase < n_phases then
      ns.ns_entries.(phase) <- ns.ns_entries.(phase) + 1;
    if phase = Flight.phase_gather then begin
      ns.ns_attempts <- ns.ns_attempts + 1;
      ns.ns_max_attempts <- max ns.ns_max_attempts ns.ns_attempts
    end;
    if phase = Flight.phase_operational then begin
      t.last_operational_ns <- now;
      ns.ns_attempts <- 0;
      ns.ns_floods <- 0
    end;
    push_trail ns phase now
  end

let on_crash ns =
  let now = Flight.now () in
  close_phase ns now;
  ns.ns_phase <- trail_crash;
  ns.ns_phase_since <- now;
  push_trail ns trail_crash now

(* The one feed: decode the Flight records the watchdog needs (argument
   layouts in flight.mli); every other code falls through untouched. *)
let as_sink t ~ns:_ ~node ~code ~a ~b:_ ~c ~d:_ ~e:_ ~f:_ ~g:_ ~h:_ ~i:_ =
  if code = Flight.ev_deliver then begin
    t.last_delivery_ns <- Flight.now ();
    t.deliveries <- t.deliveries + 1
  end
  else if node >= 0 && node < Array.length t.nodes then begin
    let ns = t.nodes.(node) in
    if code = Flight.ev_phase then on_phase t ns a
    else if code = Flight.ev_flood then begin
      ns.ns_floods <- ns.ns_floods + a;
      ns.ns_flood_total <- ns.ns_flood_total + a
    end
    else if code = Flight.ev_dedup then
      ns.ns_dedup_saved <- ns.ns_dedup_saved + c
    else if code = Flight.ev_crash then on_crash ns
    else if code = Flight.ev_session_cut then
      ns.ns_session_cuts <- ns.ns_session_cuts + 1
  end

(* ------------------------------------------------------------------ *)
(* Stall detection                                                     *)

type stall =
  | Formation_cycle of { fc_node : int; fc_attempts : int; fc_floods : int }
  | No_progress of { np_idle_ns : int; np_stuck : (int * string) list }

let check t ~now =
  let no_install = now - t.last_operational_ns > stall_ns in
  let cycles =
    Array.to_list t.nodes
    |> List.mapi (fun node ns -> (node, ns))
    |> List.filter_map (fun (node, ns) ->
           if
             ns.ns_phase <> trail_crash
             && ns.ns_attempts >= t.k_formation
             && no_install
           then
             Some
               (Formation_cycle
                  {
                    fc_node = node;
                    fc_attempts = ns.ns_attempts;
                    fc_floods = ns.ns_floods;
                  })
           else None)
  in
  let idle = now - t.last_delivery_ns in
  let stuck =
    Array.to_list t.nodes
    |> List.mapi (fun node ns -> (node, ns))
    |> List.filter_map (fun (node, ns) ->
           if
             ns.ns_phase >= 0
             && ns.ns_phase <> trail_crash
             && ns.ns_phase <> Flight.phase_operational
             && now - ns.ns_phase_since > stall_ns
           then Some (node, phase_name ns.ns_phase)
           else None)
  in
  let progress =
    if idle > stall_ns && stuck <> [] then
      [ No_progress { np_idle_ns = idle; np_stuck = stuck } ]
    else []
  in
  cycles @ progress

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type node_report = {
  nr_node : int;
  nr_phase : string;
  nr_attempts : int;
  nr_max_attempts : int;
  nr_floods : int;
  nr_flood_total : int;
  nr_dedup_saved : int;
  nr_session_cuts : int;
  nr_entries : (string * int) list;
  nr_time_in_ms : (string * float) list;
  nr_trail : string list;  (* oldest first, run-length compressed *)
}

type report = {
  r_now_ns : int;
  r_deliveries : int;
  r_stalls : stall list;
  r_nodes : node_report list;
}

let trail_codes ns =
  let stored = min ns.trail_total trail_capacity in
  let first = (ns.trail_next - stored + trail_capacity) mod trail_capacity in
  List.init stored (fun i -> ns.trail.((first + i) mod trail_capacity))

(* "gather, commit, gather, commit" stays; "gather, gather, gather" ->
   ["gather x3"]. *)
let compress_trail codes =
  let rec go = function
    | [] -> []
    | code :: rest ->
        let rec span n = function
          | c :: tl when c = code -> span (n + 1) tl
          | tl -> (n, tl)
        in
        let n, rest = span 1 rest in
        let name = phase_name code in
        (if n = 1 then name else Printf.sprintf "%s x%d" name n) :: go rest
  in
  go codes

let report t ~now =
  let nodes =
    Array.to_list t.nodes
    |> List.mapi (fun node ns ->
           let label i = phase_name i in
           {
             nr_node = node;
             nr_phase = phase_name ns.ns_phase;
             nr_attempts = ns.ns_attempts;
             nr_max_attempts = ns.ns_max_attempts;
             nr_floods = ns.ns_floods;
             nr_flood_total = ns.ns_flood_total;
             nr_dedup_saved = ns.ns_dedup_saved;
             nr_session_cuts = ns.ns_session_cuts;
             nr_entries =
               List.init n_phases (fun i -> (label i, ns.ns_entries.(i)));
             nr_time_in_ms =
               List.init n_phases (fun i ->
                   let extra =
                     if ns.ns_phase = i then max 0 (now - ns.ns_phase_since)
                     else 0
                   in
                   (label i,
                    float_of_int (ns.ns_time_in.(i) + extra) /. 1e6));
             nr_trail = compress_trail (trail_codes ns);
           })
  in
  {
    r_now_ns = now;
    r_deliveries = t.deliveries;
    r_stalls = check t ~now;
    r_nodes = nodes;
  }

let pp_stall ppf = function
  | Formation_cycle { fc_node; fc_attempts; fc_floods } ->
      Format.fprintf ppf
        "node %d: repeated gather cycling — %d formation attempts without \
         reaching operational (%d recovery messages sent)"
        fc_node fc_attempts fc_floods
  | No_progress { np_idle_ns; np_stuck } ->
      Format.fprintf ppf
        "no delivery progress for %dms; nodes stuck outside operational:%s"
        (np_idle_ns / 1_000_000)
        (String.concat ""
           (List.map
              (fun (n, p) -> Printf.sprintf " %d(%s)" n p)
              np_stuck))

let pp_report ppf r =
  Format.fprintf ppf "@[<v>health verdict at %dms (%d deliveries):"
    (r.r_now_ns / 1_000_000) r.r_deliveries;
  List.iter (fun s -> Format.fprintf ppf "@,  stall: %a" pp_stall s) r.r_stalls;
  List.iter
    (fun nr ->
      Format.fprintf ppf
        "@,  node %d: phase=%s attempts=%d floods=%d session-cuts=%d"
        nr.nr_node nr.nr_phase nr.nr_attempts nr.nr_floods nr.nr_session_cuts;
      Format.fprintf ppf
        "@,    recovery traffic: peak-attempts=%d floods=%d dedup-saved=%d"
        nr.nr_max_attempts nr.nr_flood_total nr.nr_dedup_saved;
      Format.fprintf ppf "@,    entries:%s time:%s"
        (String.concat ""
           (List.map (fun (p, n) -> Printf.sprintf " %s=%d" p n) nr.nr_entries))
        (String.concat ""
           (List.map
              (fun (p, ms) -> Printf.sprintf " %s=%.1fms" p ms)
              nr.nr_time_in_ms));
      Format.fprintf ppf "@,    trail: %s" (String.concat " → " nr.nr_trail))
    r.r_nodes;
  Format.fprintf ppf "@]"
