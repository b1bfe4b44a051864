open Aring_ring
open Aring_sim
module Daemon = Aring_daemon.Daemon
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Oracle = Aring_app.Oracle
module Kv_scenario = Aring_app.Kv_scenario
module Flight = Aring_obs.Flight

(* An M-ring deployment on one simulator: every physical node [i] of the
   [nodes] participates in all [rings] rings, as sim participant
   [r * nodes + i] for ring [r]. Rings are isolated multicast domains
   (Netsim.set_domains), each running its own membership, daemon and KV
   replica; the KV keyspace is sharded across rings by key hash. Each
   physical node is a learner of every ring: its per-ring replica
   positions feed one deterministic {!Merge}, and a
   per-node coordinator resolves cross-shard cas ops from its own
   replicas' votes — votes never cross the network. The replicated stack
   itself comes from Kv_scenario.build_cluster; this module adds only
   the merge, the skip generators and the coordinator. *)

let skip_every_ns = 250_000

(* The termination loop's schedule: its first tick comes 8 ms after the
   node first sees the op, each later one twice as long after the last,
   at most 64 ms. *)
let mcas_retry_first_ns = 8_000_000
let mcas_retry_cap_ns = 64_000_000

type mcas_reg = {
  rg_rings : int list;
  rg_parts : Op.mcas_part list;
  rg_armed : bool array;  (* per physical node: termination loop live *)
}

type t = {
  rings : int;
  nodes : int;
  sim : Netsim.t;
  members : Member.t array;  (* global pid = ring * nodes + node *)
  daemons : Daemon.t array;
  kvs : Kv.t array;
  oracles : Oracle.t array;  (* per ring *)
  merges : Kv.observation Merge.t array;
      (* per physical node: each ring's [Applied] observations, the
         records the replicas reported, stamped with the apply time *)
  emitters : (int -> int -> Kv.observation -> unit) array;
      (* per physical node: {!Merge.drain}'s callback, built once *)
  mutable merged_cbs :
    (node:int -> ring:int -> index:int -> op:Op.t -> applied_at:int -> unit)
    list;
  registry : (string, mcas_reg) Hashtbl.t;
  decisions : (string, (int * int * bool) list ref) Hashtbl.t;
      (* id -> (node, ring, commit) in observation order *)
  last_activity : int array;  (* per global pid: sim ns of last observation *)
  alive_phys : bool array;
  no_seek : bool;  (* seeded bug: installs do not seek the merge *)
  mutable mcas_submitted : int;
  mutable mcas_retries : int;
}

let rings t = t.rings
let nodes t = t.nodes
let sim t = t.sim
let pid t ~ring ~node = (ring * t.nodes) + node
let kv t ~ring ~node = t.kvs.(pid t ~ring ~node)
let member t ~ring ~node = t.members.(pid t ~ring ~node)
let daemon t ~ring ~node = t.daemons.(pid t ~ring ~node)
let oracle t ~ring = t.oracles.(ring)
let alive t ~node = t.alive_phys.(node)

(* --- shard map -------------------------------------------------------- *)

let shard_of_key t key =
  let h = Aring_util.Fnv.(string offset key) in
  Int64.to_int (Int64.logand h 0x3FFFFFFFL) mod t.rings

(* --- coordinator ------------------------------------------------------ *)

(* Resolve [id] at [node] if this node's own replicas know enough: any
   ring already decided fixes the outcome (adopt it); otherwise all
   involved rings must have voted and the outcome is the AND of the
   votes. The outcome is not applied locally — it is multicast on every
   involved ring whose local replica applies (see [resubmit]) as a
   sequenced Mdecide, so each replica resolves the park at one
   deterministic stream position. Idempotent (delivered duplicates dedup
   on id), so it is safe to try on every vote; the termination ticks
   re-call it while undecided, covering Mdecides lost to view changes,
   rings that were holding ops back and votes a snapshot brought. *)
let try_resolve t ~node id =
  match Hashtbl.find_opt t.registry id with
  | None -> ()
  | Some reg ->
      let statuses =
        List.map (fun r -> (r, Kv.mcas_status (kv t ~ring:r ~node) id)) reg.rg_rings
      in
      let decided =
        List.find_map
          (function _, Some (Kv.Mcas_decided b) -> Some b | _ -> None)
          statuses
      in
      let outcome =
        match decided with
        | Some b -> Some b
        | None ->
            if
              List.for_all
                (function _, Some (Kv.Mcas_voted _) -> true | _ -> false)
                statuses
            then
              Some
                (List.for_all
                   (function _, Some (Kv.Mcas_voted v) -> v | _ -> false)
                   statuses)
            else None
      in
      (match outcome with
      | None -> ()
      | Some commit ->
          List.iter
            (fun (r, st) ->
              match st with
              | Some (Kv.Mcas_decided _) -> ()
              | _ ->
                  let kv = kv t ~ring:r ~node in
                  if Kv.settled kv then Kv.submit_decide kv ~id ~commit)
            statuses)

let mcas_decided_at t ~node id =
  match Hashtbl.find_opt t.registry id with
  | None -> false
  | Some reg ->
      List.for_all
        (fun r ->
          match Kv.mcas_status (kv t ~ring:r ~node) id with
          | Some (Kv.Mcas_decided _) -> true
          | _ -> false)
        reg.rg_rings

(* A replica that holds ops back (before its view's election, through a
   transfer) applies the copies it holds once it is done, and a retry
   into its ring meanwhile only adds to the traffic its election waits
   behind: retries and decides go to rings whose local replica applies,
   and the next tick covers the rest. *)
let resubmit t ~node ~id reg =
  List.iter
    (fun r ->
      let kv = kv t ~ring:r ~node in
      if Kv.settled kv then Kv.submit_mcas kv ~id ~parts:reg.rg_parts)
    reg.rg_rings

(* Cooperative termination: one loop per (node, id), armed by the first
   event that shows [node] the op — its own submit, a vote, or an
   install that restores a park — which also registers the op. Copies
   lost to a minority component or a view change, and an Mdecide lost
   the same way, are never re-multicast by anyone else; a submitter
   that crashes after sending only some of the per-ring copies would
   leave the rings that did deliver one parked forever. So while the op
   is undecided at this node, each tick resubmits the full copy set from
   here (dedup on [id] makes the duplicates harmless) and recomputes
   the outcome; any surviving voter completes the commit. The loop ends
   once the node sees the op decided, so a later install that parks it
   again arms a new one. *)
let arm_termination t ~node ~id parts =
  let reg =
    match Hashtbl.find_opt t.registry id with
    | Some reg -> reg
    | None ->
        let reg =
          {
            rg_rings = List.map (fun p -> p.Op.mp_ring) parts;
            rg_parts = parts;
            rg_armed = Array.make t.nodes false;
          }
        in
        Hashtbl.replace t.registry id reg;
        reg
  in
  if not reg.rg_armed.(node) then begin
    reg.rg_armed.(node) <- true;
    let rec tick delay () =
      if t.alive_phys.(node) && not (mcas_decided_at t ~node id) then begin
        t.mcas_retries <- t.mcas_retries + 1;
        resubmit t ~node ~id reg;
        try_resolve t ~node id;
        let delay = min (2 * delay) mcas_retry_cap_ns in
        Netsim.call_at t.sim ~at:(Netsim.now t.sim + delay) (tick delay)
      end
      else reg.rg_armed.(node) <- false
    in
    Netsim.call_at t.sim
      ~at:(Netsim.now t.sim + mcas_retry_first_ns)
      (tick mcas_retry_first_ns)
  end

let note_decision t ~node ~ring ~id commit =
  let l =
    match Hashtbl.find_opt t.decisions id with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.decisions id l;
        l
  in
  l := (node, ring, commit) :: !l

let rec notify_merged ~node ~ring ~index ~op ~applied_at = function
  | [] -> ()
  | f :: rest ->
      f ~node ~ring ~index ~op ~applied_at;
      notify_merged ~node ~ring ~index ~op ~applied_at rest

(* Node [node]'s emitter: what each merged element at that node does. A
   closure of exactly three arguments, so {!Merge.drain} applies it
   whole. Ring r's op-log position i (index i + 1) sorts at turn
   i * M + r; the ring's oracle records any learner that emits it
   elsewhere. Only [Applied] observations are pushed. *)
let emitter t node =
  let m = t.merges.(node) in
  fun ring applied_at obs ->
    match (obs : Kv.observation) with
    | Applied { index; op; _ } ->
        Flight.record ~node:(pid t ~ring ~node) ~code:Flight.ev_merge ~a:ring
          ~b:(Merge.emitted m) ~c:0 ~d:0;
        Oracle.check_merged t.oracles.(ring) ~node:(pid t ~ring ~node) ~index
          ~turn:(Merge.turn m - 1)
          ~expected:(((index - 1) * t.rings) + ring);
        notify_merged ~node ~ring ~index ~op ~applied_at t.merged_cbs
    | _ -> ()

let drain_merge t ~node = Merge.drain t.merges.(node) t.emitters.(node)

let observe t ~node ~ring (obs : Kv.observation) =
  t.last_activity.(pid t ~ring ~node) <- Netsim.now t.sim;
  match obs with
  | Kv.Applied _ ->
      (* The merge holds the replica's own record, not a copy. *)
      Merge.push_item t.merges.(node) ~ring ~stamp:(Netsim.now t.sim) obs;
      drain_merge t ~node
  | Kv.Skipped { upto } ->
      Merge.seek t.merges.(node) ~ring upto;
      drain_merge t ~node
  | Kv.Voted { id; parts; _ } ->
      arm_termination t ~node ~id parts;
      try_resolve t ~node id
  | Kv.Decided { id; commit } -> note_decision t ~node ~ring ~id commit
  | Kv.Installed { applied; _ } ->
      (* The replica now stands at the donor's position: the learner
         seeks there, and lines up with learners that saw every item. *)
      if not t.no_seek then begin
        Merge.seek t.merges.(node) ~ring applied;
        drain_merge t ~node
      end;
      (* A snapshot may carry a park this node never saw delivered. The
         parked head carries the full op, so arm termination here:
         without this, a park whose every original voter crashed would
         wait forever. The votes a snapshot brings for an op already
         armed here are read by that loop's next tick. *)
      (match Kv.parked_op (kv t ~ring ~node) with
      | Some (Op.Mcas { id; parts }) -> arm_termination t ~node ~id parts
      | _ -> ())
  | Kv.Read _ | Kv.Aborted | Kv.Reset -> ()

(* --- skip generators -------------------------------------------------- *)

(* Every node runs one generator per ring. Once the ring has been silent
   at this node for an interval, its designated member — the lowest of
   its installed view — multicasts a skip naming the highest position
   any ring has reached in its own merge: a log entry, so every learner
   sees the ring move there at one point of its stream. It grants only
   while that view is primary and its own replica applies (a minority
   rejects a skip; a held-back or parked replica holds it too). *)
let designated t ~ring ~node =
  match Member.current_view (member t ~ring ~node) with
  | Some { Participant.members; _ } ->
      2 * List.length members > t.nodes
      && List.fold_left min max_int members = pid t ~ring ~node
  | None -> false

let frontier m =
  let best = ref 0 in
  for ring = 0 to Merge.rings m - 1 do
    best := max !best (Merge.position m ~ring)
  done;
  !best

let install_skip_generators t =
  for node = 0 to t.nodes - 1 do
    let m = t.merges.(node) in
    for ring = 0 to t.rings - 1 do
      let p = pid t ~ring ~node in
      let rec tick () =
        if t.alive_phys.(node) then begin
          let upto = frontier m in
          if
            upto > Merge.position m ~ring
            && Netsim.now t.sim - t.last_activity.(p) >= skip_every_ns
            && designated t ~ring ~node
            && Kv.settled (kv t ~ring ~node)
            && not (Kv.mcas_parked (kv t ~ring ~node))
          then begin
            Flight.record ~node:p ~code:Flight.ev_skip ~a:ring ~b:upto ~c:0 ~d:0;
            Kv.skip (kv t ~ring ~node) ~upto
          end;
          Netsim.call_at t.sim ~at:(Netsim.now t.sim + skip_every_ns) tick
        end
      in
      (* Staggered start so generators don't fire in one burst. *)
      Netsim.call_at t.sim ~at:(500_000 + (p * 37_000)) tick
    done
  done

(* --- construction ----------------------------------------------------- *)

let create ?(params = Params.snappy) ?(net = Profile.gigabit) ?tiers
    ?(seed = 1L) ?wrap ?kv_bug ?(no_seek = false) ~rings ~nodes () =
  if rings < 1 then invalid_arg "Cluster.create: rings < 1";
  if nodes < 2 then invalid_arg "Cluster.create: nodes < 2";
  let { Kv_scenario.sim; members; daemons; kvs; oracles } =
    Kv_scenario.build_cluster ?tiers ?wrap ?kv_bug ~rings ~n:nodes ~net
      ~params ~seed ()
  in
  let t =
    {
      rings;
      nodes;
      sim;
      members;
      daemons;
      kvs;
      oracles;
      merges = Array.init nodes (fun _ -> Merge.create ~rings);
      emitters = Array.make nodes (fun _ _ _ -> ());
      merged_cbs = [];
      registry = Hashtbl.create 64;
      decisions = Hashtbl.create 64;
      last_activity = Array.make (rings * nodes) 0;
      alive_phys = Array.make nodes true;
      no_seek;
      mcas_submitted = 0;
      mcas_retries = 0;
    }
  in
  Array.iteri (fun node _ -> t.emitters.(node) <- emitter t node) t.emitters;
  Array.iteri
    (fun p kv ->
      let ring = p / nodes and node = p mod nodes in
      Kv.add_observer kv (fun obs -> observe t ~node ~ring obs))
    kvs;
  (* One ring's merge is the identity: a skip there is only traffic. *)
  if rings > 1 then install_skip_generators t;
  t

let on_merged t f = t.merged_cbs <- t.merged_cbs @ [ f ]
let merge t ~node = t.merges.(node)

(* --- client operations ------------------------------------------------ *)

let put t ~node ~key ~value =
  Kv.put (kv t ~ring:(shard_of_key t key) ~node) ~key ~value

(* Split a multi-key cas into per-ring parts by shard. *)
let mcas_parts t ~checks ~writes =
  let tbl = Hashtbl.create 4 in
  let part r =
    match Hashtbl.find_opt tbl r with
    | Some p -> p
    | None ->
        let p = (ref [], ref []) in
        Hashtbl.replace tbl r p;
        p
  in
  List.iter
    (fun (k, x) ->
      let c, _ = part (shard_of_key t k) in
      c := (k, x) :: !c)
    checks;
  List.iter
    (fun (k, v) ->
      let _, w = part (shard_of_key t k) in
      w := (k, v) :: !w)
    writes;
  Hashtbl.fold
    (fun r (c, w) acc ->
      { Op.mp_ring = r; mp_checks = List.rev !c; mp_writes = List.rev !w }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.Op.mp_ring b.Op.mp_ring)

(* Submit a cross-shard cas from [node]: one identical copy per involved
   ring, then arm this node's termination loop, which retries until the
   node sees a decision. *)
let mcas t ~node ~id ~checks ~writes =
  let parts = mcas_parts t ~checks ~writes in
  t.mcas_submitted <- t.mcas_submitted + 1;
  List.iter
    (fun p -> Kv.submit_mcas (kv t ~ring:p.Op.mp_ring ~node) ~id ~parts)
    parts;
  arm_termination t ~node ~id parts

let mcas_submitted t = t.mcas_submitted
let mcas_retries t = t.mcas_retries
let mcas_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.registry []
let decisions_for t id =
  match Hashtbl.find_opt t.decisions id with
  | None -> []
  | Some l -> List.rev !l

(* --- faults ----------------------------------------------------------- *)

(* Crashing a physical node crashes its participant in every ring. *)
let crash t ~node =
  t.alive_phys.(node) <- false;
  for r = 0 to t.rings - 1 do
    Netsim.crash t.sim (pid t ~ring:r ~node)
  done

(* --- convergence ------------------------------------------------------ *)

(* The surviving replicas of [ring], in node order. *)
let survivors t ~ring =
  List.filter_map
    (fun i -> if t.alive_phys.(i) then Some (kv t ~ring ~node:i) else None)
    (List.init t.nodes Fun.id)

(* Resolving a park or moving a merge takes ordered writes: while the
   survivors cannot form a primary, a frozen one is correct, not stuck. *)
let can_form_primary t =
  let alive = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.alive_phys in
  2 * alive > t.nodes

(* Every ring's survivors pass {!Kv_scenario.kv_converged}, with no
   undecided parked mcas anywhere while a primary can form. *)
let kv_converged t =
  let primary = can_form_primary t in
  List.for_all
    (fun ring ->
      let kvs = survivors t ~ring in
      Kv_scenario.kv_converged (Array.of_list kvs)
      && not (primary && List.exists Kv.mcas_parked kvs))
    (List.init t.rings Fun.id)

(* Every delivered item has drained through every survivor's merge —
   nothing is stuck behind a silent ring — unless no primary can form,
   which freezes the skips a silent ring needs. Merged-stream *lengths*
   are deliberately not compared: a learner whose replica caught up by
   snapshot transfer seeks past the items it never saw. *)
let merge_settled t =
  let ok = ref true in
  for i = 0 to t.nodes - 1 do
    if t.alive_phys.(i) then
      for r = 0 to t.rings - 1 do
        if Merge.pending t.merges.(i) ~ring:r > 0 then ok := false
      done
  done;
  !ok || not (can_form_primary t)

let oracle_violations t =
  Array.fold_left (fun acc o -> acc + Oracle.violation_count o) 0 t.oracles

let check_convergence t =
  Array.iteri
    (fun ring o -> Oracle.check_convergence o (survivors t ~ring))
    t.oracles

let record_metrics t reg =
  for r = 0 to t.rings - 1 do
    let prefix = Printf.sprintf "ring%d." r in
    Kv.record_metrics ~prefix (kv t ~ring:r ~node:0) reg;
    (* Daemon/engine counters accumulate over the ring's members into
       per-ring totals. *)
    for i = 0 to t.nodes - 1 do
      Daemon.record_metrics ~prefix (daemon t ~ring:r ~node:i) reg
    done
  done;
  Netsim.record_metrics t.sim reg
