module Prng = Aring_util.Prng
module Fnv = Aring_util.Fnv
module Checker = Aring_obs.Checker
module Trace = Aring_obs.Trace
module Flight = Aring_obs.Flight
module Health = Aring_obs.Health
module Kv = Aring_app.Kv
module Oracle = Aring_app.Oracle
module Kv_scenario = Aring_app.Kv_scenario
module Cluster = Aring_multiring.Cluster
module Merge = Aring_multiring.Merge
module Load = Aring_load.Load
module Metrics = Aring_obs.Metrics
open Aring_wire
open Aring_ring
open Aring_sim

type failure =
  | Invariant of Checker.verdict
  | No_merge of { states : (int * string) list }
  | No_convergence of { missing : (int * string) list }
  | Kv_violation of { total : int; messages : string list }
  | Kv_unsettled of { nodes : (int * string) list }
  | Mcas_divergence of { id : string; decisions : (int * int * bool) list }
  | Health_stall of { report : Health.report }
  | Run_exception of string

type outcome = {
  schedule : Schedule.t;
  failure : failure option;
  verdict : Checker.verdict;
  deliveries : int;
  views : int;
  trace_hash : int64;
  end_ns : int;
  health : Health.report;
      (* End-of-run watchdog report, also on passing runs: tests assert
         convergence quality (peak formation attempts, dedup savings),
         not just convergence. *)
}

let passed o = o.failure = None

let failure_label = function
  | Invariant _ -> "invariant"
  | No_merge _ -> "no_merge"
  | No_convergence _ -> "no_convergence"
  | Kv_violation _ -> "kv_violation"
  | Kv_unsettled _ -> "kv_unsettled"
  | Health_stall _ -> "health_stall"
  | Mcas_divergence _ -> "mcas_divergence"
  | Run_exception _ -> "exception"

let ms n = n * 1_000_000

let probe_payload node = Printf.sprintf "probe:%d" node

(* One static drop predicate closing over the simulated clock handles
   arbitrarily overlapping fault windows (the LIFO-scoped
   [Netsim.set_drop_until] cannot). Burst losses consume a dedicated PRNG;
   predicate evaluation order is deterministic, so the draw stream is
   too. On an M-ring cluster, partitions and blackouts carry an optional
   ring scope (-1 = every ring, the only value single-ring schedules
   carry); islands stay physical ([pid mod n]), so a scoped partition
   cuts the same physical nodes but only inside one ordering ring's
   multicast domain. Crashes are physical: [crash node] kills the
   node's participant in every ring. *)
let install_faults sim (s : Schedule.t) ~crash =
  let n = s.config.Schedule.n_nodes in
  let partitions =
    List.filter_map
      (function
        | Schedule.Partition { at_ns; until_ns; island; ring } ->
            let inside = Array.make n false in
            List.iter
              (fun i -> if i >= 0 && i < n then inside.(i) <- true)
              island;
            Some (at_ns, until_ns, inside, ring)
        | _ -> None)
      s.faults
  in
  let bursts =
    List.filter_map
      (function
        | Schedule.Loss_burst { at_ns; until_ns; permille } ->
            Some (at_ns, until_ns, permille)
        | _ -> None)
      s.faults
  in
  let blackouts =
    List.filter_map
      (function
        | Schedule.Token_blackout { at_ns; until_ns; ring } ->
            Some (at_ns, until_ns, ring)
        | _ -> None)
      s.faults
  in
  let burst_prng = Prng.create ~seed:(Int64.logxor s.seed 0x6275727374L) in
  Netsim.set_drop sim (fun ~src ~dst msg ->
      let now = Netsim.now sim in
      let active at until = now >= at && now < until in
      (* Domains prune cross-ring traffic before this predicate runs, so
         src and dst always share a ring. *)
      let in_ring ring = ring < 0 || src / n = ring in
      List.exists
        (fun (at, until, inside, ring) ->
          active at until && in_ring ring
          && inside.(src mod n) <> inside.(dst mod n))
        partitions
      || (match msg with
         | Message.Token _ | Message.Commit _ ->
             List.exists
               (fun (at, until, ring) -> active at until && in_ring ring)
               blackouts
         | _ -> false)
      ||
      let permille =
        List.fold_left
          (fun acc (at, until, p) -> if active at until then max acc p else acc)
          0 bursts
      in
      permille > 0 && Prng.int burst_prng 1000 < permille);
  List.iter
    (function
      | Schedule.Crash { at_ns; node } ->
          if node >= 0 && node < n then
            Netsim.call_at sim ~at:at_ns (fun () -> crash node)
      | _ -> ())
    s.faults

let install_workload sim (s : Schedule.t) (members : Member.t array) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let wl_prng = Prng.create ~seed:(Int64.logxor s.seed 0x776F726BL) in
  let payload tag = Bytes.of_string (Kv_scenario.pad tag c.Schedule.payload) in
  for node = 0 to n - 1 do
    let counter = ref 0 in
    let rec tick () =
      if Netsim.now sim < c.Schedule.horizon_ns && Netsim.is_alive sim node
      then begin
        incr counter;
        let service =
          if
            c.Schedule.safe_permille > 0
            && Prng.int wl_prng 1000 < c.Schedule.safe_permille
          then Types.Safe
          else Types.Agreed
        in
        Member.submit members.(node) service
          (payload (Printf.sprintf "m:%d:%d" node !counter));
        Netsim.call_at sim
          ~at:(Netsim.now sim + c.Schedule.submit_gap_ns)
          tick
      end
    in
    (* Stagger the start so nodes do not tick in lockstep. *)
    Netsim.call_at sim ~at:(ms 1 + (node * 97_000)) tick
  done

(* KV runs draw every op from the one open-loop client, {!Load}, in a
   spec derived from the schedule. Its safe-permille knob is the
   sync-read fraction (sync reads are the app layer's Safe-service
   traffic). Values follow its payload knob, capped: full-MTU values on
   top of the per-op envelope framing would turn every
   membership-recovery exchange into a switch-buffer endurance test
   (the bare workload covers full-size payloads); the kv suite is after
   consistency bugs, not congestion collapse. Keys are uniform: under a
   Zipf(0.99) draw the seeded learner bugs escape trial 0. *)
let kv_max_value = 160

let kv_spec (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes and safe = c.Schedule.safe_permille in
  let of_rest p = p * (1000 - safe) / 1000 in
  {
    Load.default_spec with
    label = "fuzz";
    n_nodes = n;
    sessions_per_node = 1;
    n_groups = 1;
    arrival = Load.Periodic;
    ops_per_sec = float_of_int n *. 1e9 /. float_of_int c.Schedule.submit_gap_ns;
    key_space = 64;
    zipf_theta = 0.0;
    value_mix = [ (min c.Schedule.payload kv_max_value, 1) ];
    read_permille = of_rest 250;
    sync_read_permille = safe;
    cas_permille = of_rest 100;
    del_permille = of_rest 70;
    mcas_permille = (if c.Schedule.rings > 1 then of_rest 60 else 0);
    rings = c.Schedule.rings;
    warmup_ns = 0;
    measure_ns = c.Schedule.horizon_ns;
    drain_ns = c.Schedule.drain_ns;
    seed = s.seed;
  }

(* The formation-cycle threshold must scale with the schedule. A
   membership attempt's commit token makes two passes around the new
   ring (collect the member infos, spread them), 2n hops that no
   retransmission covers, and recovery then takes at least two rotations
   of the new ring's token. Modelled as ~4n lossy hops, under sustained
   per-hop loss p each attempt fails with probability about
   1 - (1-p)^(4n) from loss alone: ~59% at 28 nodes and 8 permille.
   Long runs of loss-killed attempts there are legitimate, not a
   livelock. Modelled at ~2n hops, that threshold was 10, and the
   watchdog flagged the health_stall corpus entry, which converges at
   1,275 ms after more attempts than that. Pick the smallest k that
   bounds the false-positive odds of k consecutive legitimate failures
   below ~1e-4; a true livelock (which never succeeds) still trips it,
   and the deadline oracles keep judging final convergence regardless. *)
let k_formation (c : Schedule.config) =
  let base = Health.default_k_formation in
  let p = float_of_int c.Schedule.base_loss_permille /. 1000. in
  let attempt_fail = 1. -. ((1. -. p) ** float_of_int (4 * c.Schedule.n_nodes)) in
  if attempt_fail <= 0. || attempt_fail >= 1. then base
  else max base (int_of_float (ceil (log 1e-4 /. log attempt_fail)))

(* Liveness stage 1, per ring: the survivors' [members] (pids [pids])
   all operational in one common regular view whose membership is
   exactly [pids]. All fault windows close inside the horizon and
   crashes are permanent, so once reached this is stable (absent real
   liveness bugs). The state_name check is load-bearing: [current_view]
   reports the last *installed* view, so a node mid-formation still
   answers with a stale view — without the check, probes can be
   submitted while nodes are re-forming, land in client_pending, and get
   sequenced in whichever (possibly partial) ring installs next, never
   reaching the full membership. *)
let ring_merged members ~pids =
  let pids = List.sort compare pids in
  List.for_all (fun m -> Member.state_name m = "operational") members
  &&
  let views = List.map Member.current_view members in
  List.for_all
    (function
      | Some v ->
          (not v.Participant.transitional)
          && List.sort compare v.Participant.members = pids
      | None -> false)
    views
  && (match views with
     | Some v0 :: rest ->
         List.for_all
           (function
             | Some v ->
                 Types.ring_id_equal v.Participant.view_id v0.Participant.view_id
             | None -> false)
           rest
     | _ -> true)

(* Chunked execution, shared by both paths: stop at the first chunk
   boundary with a violation (fast failure) or, past the horizon, full
   convergence (fast success). No run passes before its horizon: the
   workload and the fault windows run until then, so agreement earlier
   says nothing about the faults still to come. Chunk boundaries and
   every decision depend only on the schedule and the trace so far, so
   stopping early keeps the trace hash reproducible. At each boundary
   [violation] names an oracle failure and [before_judging] runs path
   work (the probe submission); at the deadline [unconverged] explains a
   liveness miss. Returns the failure, the trace hash and the end-of-run
   watchdog report. *)
let drive_chunks sim (s : Schedule.t) ~checker ~health ~violation
    ?(before_judging = fun _ -> ()) ~converged ~unconverged () =
  let c = s.config in
  (* FNV-1a, 64-bit, over the twelve integers of each Flight record,
     eight little-endian bytes each. *)
  let hash = ref Fnv.offset in
  let record = Bytes.create 96 in
  let put k x = Bytes.set_int64_le record (8 * k) (Int64.of_int x) in
  let hash_sink ~ns ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i =
    put 0 ns; put 1 node; put 2 code; put 3 a; put 4 b; put 5 c;
    put 6 d; put 7 e; put 8 f; put 9 g; put 10 h; put 11 i;
    hash := Fnv.string !hash (Bytes.unsafe_to_string record)
  in
  let deadline = c.Schedule.horizon_ns + c.Schedule.drain_ns in
  let failure = ref None in
  let finished = ref false in
  let stop f =
    failure := f;
    finished := true
  in
  let chunks () =
    let t = ref 0 in
    while not !finished do
      t := min deadline (!t + ms 25);
      Netsim.run_until sim !t;
      if Checker.violation_count checker > 0 then
        stop (Some (Invariant (Checker.verdict checker)))
      else
        match violation () with
        | Some f -> stop (Some f)
        | None ->
            before_judging !t;
            if !t > c.Schedule.horizon_ns && converged () then stop None
            else if Health.check health ~now:!t <> [] then
              (* Stalled: stop now with an explanation instead of
                 burning the rest of the drain budget to a timeout. *)
              stop
                (Some (Health_stall { report = Health.report health ~now:!t }))
            else if !t >= deadline then stop (unconverged ())
    done
  in
  (try
     Trace.with_sink hash_sink (fun () ->
         Trace.with_sink (Checker.as_sink checker) chunks)
   with e -> failure := Some (Run_exception (Printexc.to_string e)));
  (!failure, !hash, Health.report health ~now:(Netsim.now sim))

(* ---------- KV runs, at every ring count ---------- *)

(* The replicated-KV stack on a {!Cluster}, at any ring count. Probes
   are never sent — EVS raw payloads do not survive post-horizon
   membership churn, and the app's per-view traffic makes such churn
   routine — so convergence is judged on replica equality
   (which state transfer does guarantee), merge quiescence and
   cross-shard decision agreement. *)
let run_cluster ~bug ~health (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let rings = c.Schedule.rings in
  let params = Schedule.params c in
  let tiers =
    Array.of_list (List.map Schedule.tier c.Schedule.tier_ids)
  in
  let kv_bug ~ring:_ ~node =
    match bug with
    | Bug.Kv_skip_apply { node = bn; every } when bn = node ->
        Some (Kv.Bug_skip_apply { every })
    | Bug.Kv_apply_before_election -> Some Kv.Bug_apply_before_election
    | _ -> None
  in
  let cluster =
    Cluster.create ~params ~net:(Schedule.net c) ~tiers ~seed:s.seed
      ~wrap:(fun ~pid p -> Bug.wrap bug ~node:pid p)
      ~kv_bug ~no_seek:(bug = Bug.Merge_no_seek) ~rings ~nodes:n ()
  in
  let sim = Cluster.sim cluster in
  let checker = Checker.create () in
  let deliveries = ref 0 in
  let views = ref 0 in
  Netsim.on_deliver sim (fun ~at:_ ~now:_ _ -> incr deliveries);
  Netsim.on_view sim (fun ~at:_ ~now:_ _ -> incr views);
  install_faults sim s ~crash:(fun node -> Cluster.crash cluster ~node);
  let settled () =
    Cluster.kv_converged cluster && Cluster.merge_settled cluster
  in
  let shard = Cluster.shard_of_key cluster in
  (* Every other mcas, by its id's hash, carries a check read of its
     first key from the local replica, so both the commit and abort
     paths run. *)
  let mcas ~node ~id ~writes =
    let checks =
      match writes with
      | (k1, _) :: _ when Hashtbl.hash id land 1 = 0 ->
          [ (k1, fst (Kv.read (Cluster.kv cluster ~ring:(shard k1) ~node) ~key:k1)) ]
      | _ -> []
    in
    Cluster.mcas cluster ~node ~id ~checks ~writes
  in
  let spec = kv_spec s in
  Load.validate ~prefix:"fuzz" spec;
  ignore
    (Load.start ~prefix:"fuzz" ~metrics:(Metrics.create ()) spec
       {
         Load.sim;
         daemon = Cluster.daemon cluster;
         kv = Cluster.kv cluster;
         shard;
         mcas = (if rings > 1 then Some mcas else None);
         completes_at = Fun.id;
         on_applied = ignore;
         settled;
       }
      : unit -> Load.sessions);
  let ring_ids = List.init rings Fun.id in
  let alive_phys () =
    List.filter (fun i -> Cluster.alive cluster ~node:i) (List.init n Fun.id)
  in
  (* One line per surviving (ring, node), keyed by its pid. *)
  let per_survivor line =
    List.concat_map
      (fun ring ->
        List.map
          (fun node -> (Cluster.pid cluster ~ring ~node, line ~ring ~node))
          (alive_phys ()))
      ring_ids
  in
  (* Merged only when ALL rings have re-formed: an idle or slow ring
     must not be vacuously skipped. *)
  let merged () =
    match alive_phys () with
    | [] -> true
    | survivors ->
        List.for_all
          (fun r ->
            ring_merged
              (List.map (fun i -> Cluster.member cluster ~ring:r ~node:i) survivors)
              ~pids:(List.map (fun i -> Cluster.pid cluster ~ring:r ~node:i) survivors))
          ring_ids
  in
  let kv_state ~ring ~node =
    let kv = Cluster.kv cluster ~ring ~node in
    let st = Kv.stats kv in
    let m = Cluster.member cluster ~ring ~node in
    let merge = Cluster.merge cluster ~node in
    Printf.sprintf
      "ring=%d node=%d applied=%d digest=%Lx synced=%b settled=%b parked=%b \
       merge_position=%d merge_turn=%d merge_pending=%d rejected=%d \
       installs=%d aborts=%d resets=%d state=%s view=%s"
      ring node (Kv.applied kv) (Kv.digest kv) (Kv.synced kv) (Kv.settled kv)
      (Kv.mcas_parked kv)
      (Merge.position merge ~ring) (Merge.turn merge)
      (Merge.pending merge ~ring)
      st.Kv.rejected_writes st.Kv.installs st.Kv.xfer_aborts st.Kv.cold_resets
      (Member.state_name m)
      (match Member.current_view m with
      | None -> "-"
      | Some v ->
          Format.asprintf "%a[%s]" Types.pp_ring_id v.Participant.view_id
            (String.concat "," (List.map string_of_int v.Participant.members)))
  in
  (* Cross-shard atomicity: every decision observation for one mcas id —
     any node, any ring, any time — must carry the same commit bit. *)
  let mcas_divergence () =
    List.find_map
      (fun id ->
        match Cluster.decisions_for cluster id with
        | [] -> None
        | (_, _, c0) :: rest ->
            if List.exists (fun (_, _, c) -> c <> c0) rest then
              let decisions =
                List.filteri
                  (fun i _ -> i < 12)
                  (Cluster.decisions_for cluster id)
              in
              Some (Mcas_divergence { id; decisions })
            else None)
      (Cluster.mcas_ids cluster)
  in
  let kv_failure () =
    if Cluster.oracle_violations cluster > 0 then
      let messages =
        List.concat_map
          (fun ring -> Oracle.messages (Cluster.oracle cluster ~ring))
          ring_ids
      in
      Some
        (Kv_violation
           {
             total = Cluster.oracle_violations cluster;
             messages = List.filteri (fun i _ -> i < 8) messages;
           })
    else mcas_divergence ()
  in
  let failure, trace_hash, health_report =
    drive_chunks sim s ~checker ~health ~violation:kv_failure
      ~converged:(fun () -> merged () && settled ())
      ~unconverged:(fun () ->
        if not (merged ()) then
          Some
            (No_merge
               {
                 states =
                   per_survivor (fun ~ring ~node ->
                       Member.state_name (Cluster.member cluster ~ring ~node));
               })
        else if not (settled ()) then
          Some (Kv_unsettled { nodes = per_survivor kv_state })
        else None)
      ()
  in
  (* Final oracle pass: end-of-run convergence (survivor stores equal and
     byte-identical to their shadows) plus any violation recorded after
     the last chunk boundary. *)
  let failure =
    match failure with
    | Some _ -> failure
    | None ->
        Cluster.check_convergence cluster;
        kv_failure ()
  in
  {
    schedule = s;
    failure;
    verdict = Checker.verdict checker;
    deliveries = !deliveries;
    views = !views;
    trace_hash;
    end_ns = Netsim.now sim;
    health = health_report;
  }

(* ---------- Bare-ring runs (one ring) ---------- *)

(* Raw ring members with the padded byte workload, judged by probes:
   once the survivors have merged past the horizon, every survivor
   multicasts a probe and every survivor must deliver all of them. *)
let run_single ~bug ~health (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  let params = Schedule.params c in
  let tiers =
    Array.of_list (List.map Schedule.tier c.Schedule.tier_ids)
  in
  let initial_ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ~initial_ring ())
  in
  let participants =
    Array.init n (fun i -> Bug.wrap bug ~node:i (Member.participant members.(i)))
  in
  let sim =
    Netsim.create ~net:(Schedule.net c) ~tiers ~participants ~seed:s.seed ()
  in
  let checker = Checker.create () in
  let deliveries = ref 0 in
  let views = ref 0 in
  (* (node, probe payload) pairs actually delivered. *)
  let got : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  Netsim.on_deliver sim (fun ~at:node ~now:_ (d : Message.data) ->
      incr deliveries;
      let p = Bytes.to_string d.Message.payload in
      if String.length p >= 6 && String.sub p 0 6 = "probe:" then
        Hashtbl.replace got (node, p) ());
  Netsim.on_view sim (fun ~at:_ ~now:_ _ -> incr views);
  install_faults sim s ~crash:(Netsim.crash sim);
  install_workload sim s members;
  let alive () = List.filter (Netsim.is_alive sim) (List.init n Fun.id) in
  let merged () =
    match alive () with
    | [] -> true
    | survivors ->
        ring_merged (List.map (fun i -> members.(i)) survivors) ~pids:survivors
  in
  let probes = ref [] in
  let probes_sent = ref false in
  let send_probes () =
    probes_sent := true;
    List.iter
      (fun node ->
        probes := probe_payload node :: !probes;
        Member.submit members.(node) Types.Agreed
          (Bytes.of_string (probe_payload node)))
      (alive ());
    probes := List.rev !probes
  in
  let missing_probes () =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun p ->
            if Hashtbl.mem got (node, p) then None else Some (node, p))
          !probes)
      (alive ())
  in
  let failure, trace_hash, health_report =
    drive_chunks sim s ~checker ~health
      ~violation:(fun () -> None)
      ~before_judging:(fun t ->
        if (not !probes_sent) && t > c.Schedule.horizon_ns && merged () then
          send_probes ())
      ~converged:(fun () -> !probes_sent && missing_probes () = [])
      ~unconverged:(fun () ->
        if not !probes_sent then
          Some
            (No_merge
               {
                 states =
                   List.map (fun i -> (i, Member.state_name members.(i))) (alive ());
               })
        else
          match List.sort compare (missing_probes ()) with
          | [] -> None
          | missing -> Some (No_convergence { missing }))
      ()
  in
  {
    schedule = s;
    failure;
    verdict = Checker.verdict checker;
    deliveries = !deliveries;
    views = !views;
    trace_hash;
    end_ns = Netsim.now sim;
    health = health_report;
  }

(* Fourth judge: the recovery/stall health watchdog, subscribed for the
   whole run (start-up records phases) and fed by the Flight records of
   Member, Engine and Netsim. The flight recorder restarts empty so a
   post-mortem dump shows only this run. Neither touches the hashed
   trace stream. *)
let run ?(bug = Bug.Clean) (s : Schedule.t) =
  let c = s.config in
  if Bug.needs_kv bug && c.Schedule.app = Schedule.Bare then
    invalid_arg ("Runner.run: bug " ^ Bug.label bug ^ " needs a kv schedule");
  Flight.reset ();
  let health =
    Health.create ~k_formation:(k_formation c)
      ~n:(c.Schedule.rings * c.Schedule.n_nodes) ()
  in
  Trace.with_sink (Health.as_sink health) (fun () ->
      match c.Schedule.app with
      | Schedule.Bare -> run_single ~bug ~health s
      | Schedule.Kv -> run_cluster ~bug ~health s)

let pp_failure ppf = function
  | Invariant v ->
      Format.fprintf ppf "invariant violations (%d):" v.Checker.violation_total;
      List.iteri
        (fun i viol ->
          if i < 5 then
            Format.fprintf ppf "@,  %s" (Checker.violation_message viol))
        v.Checker.recorded
  | No_merge { states } ->
      Format.fprintf ppf "survivors never merged into one view:";
      List.iter
        (fun (node, st) -> Format.fprintf ppf "@,  node %d: %s" node st)
        states
  | No_convergence { missing } ->
      Format.fprintf ppf "no convergence; %d missing probe deliveries:"
        (List.length missing);
      List.iteri
        (fun i (node, p) ->
          if i < 8 then Format.fprintf ppf "@,  node %d never saw %s" node p)
        missing
  | Kv_violation { total; messages } ->
      Format.fprintf ppf "kv consistency violations (%d):" total;
      List.iter (fun m -> Format.fprintf ppf "@,  %s" m) messages
  | Kv_unsettled { nodes } ->
      Format.fprintf ppf "kv replicas never converged:";
      List.iter
        (fun (node, st) -> Format.fprintf ppf "@,  node %d: %s" node st)
        nodes
  | Health_stall { report } ->
      Format.fprintf ppf "health watchdog stall:@,%a" Health.pp_report report
  | Mcas_divergence { id; decisions } ->
      Format.fprintf ppf "cross-shard mcas %s decided differently:" id;
      List.iteri
        (fun i (node, ring, commit) ->
          if i < 12 then
            Format.fprintf ppf "@,  node %d ring %d: %s" node ring
              (if commit then "commit" else "abort"))
        decisions
  | Run_exception e -> Format.fprintf ppf "exception: %s" e

let pp_outcome ppf o =
  match o.failure with
  | None ->
      Format.fprintf ppf
        "@[<v>PASS deliveries=%d views=%d end=%dms hash=%Lx@]" o.deliveries
        o.views
        (o.end_ns / ms 1)
        o.trace_hash
  | Some f ->
      Format.fprintf ppf "@[<v>FAIL (%s) deliveries=%d views=%d end=%dms@,%a@]"
        (failure_label f) o.deliveries o.views
        (o.end_ns / ms 1)
        pp_failure f
