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
   observations feed one deterministic round-robin {!Merge}, and a
   per-node coordinator resolves cross-shard cas ops from its own
   replicas' votes — votes never cross the network. The replicated stack
   itself comes from Kv_scenario.build_cluster; this module adds only
   the merge, the skip generators and the coordinator. *)

type merged_item = {
  mi_ring : int;
  mi_index : int;
  mi_op : Op.t;
  mi_value : string option;
  mi_applied_at : int;
}

type mcas_reg = {
  rg_rings : int list;
  rg_node : int;
  mutable rg_parts : Op.mcas_part list;
  rg_armed : bool array;  (* per physical node: termination helper live *)
}

type t = {
  rings : int;
  nodes : int;
  sim : Netsim.t;
  members : Member.t array;  (* global pid = ring * nodes + node *)
  daemons : Daemon.t array;
  kvs : Kv.t array;
  oracles : Oracle.t array;  (* per ring *)
  merges : merged_item Merge.t array;  (* per physical node *)
  mutable merged_cbs : (node:int -> ring:int -> merged_item -> unit) list;
  registry : (string, mcas_reg) Hashtbl.t;
  decisions : (string, (int * int * bool) list ref) Hashtbl.t;
      (* id -> (node, ring, commit) in observation order *)
  last_activity : int array;  (* per global pid: sim ns of last observation *)
  alive_phys : bool array;
  skip_every_ns : int;
  skip_credits : int;
  mcas_retry_ns : int;
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

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let shard_of_key t key =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    key;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFL) mod t.rings

(* --- coordinator ------------------------------------------------------ *)

(* Resolve [id] at [node] if this node's own replicas know enough: any
   ring already decided fixes the outcome (adopt it); otherwise all
   involved rings must have voted and the outcome is the AND of the
   votes. The outcome is not applied locally — it is multicast on every
   involved ring as a sequenced Mdecide, so each replica resolves the
   park at one deterministic stream position. Idempotent (delivered
   duplicates dedup on id), so it is safe to try on every vote and every
   snapshot install; the termination ticks re-call it while undecided,
   covering Mdecides lost to view changes. *)
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
              | _ -> Kv.submit_decide (kv t ~ring:r ~node) ~id ~commit)
            statuses)

let register t ~node ~id ?(parts = []) rings =
  match Hashtbl.find_opt t.registry id with
  | Some reg -> if reg.rg_parts = [] then reg.rg_parts <- parts
  | None ->
      Hashtbl.replace t.registry id
        {
          rg_rings = rings;
          rg_node = node;
          rg_parts = parts;
          rg_armed = Array.make t.nodes false;
        }

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

(* Cooperative termination: a submitter that crashes after sending only
   some of an mcas's per-ring copies would otherwise leave the rings
   that *did* deliver one parked forever. Every node that observes a
   vote keeps a slow helper loop: while the op is undecided at this
   node, resubmit the full copy set from here (dedup on [id] makes the
   duplicates harmless). Any surviving voter completes the commit. *)
let arm_termination t ~node id =
  match Hashtbl.find_opt t.registry id with
  | None -> ()
  | Some reg ->
      if not reg.rg_armed.(node) then begin
        reg.rg_armed.(node) <- true;
        let period = 3 * t.mcas_retry_ns in
        let rec tick () =
          if t.alive_phys.(node) && not (mcas_decided_at t ~node id) then begin
            if reg.rg_parts <> [] then begin
              t.mcas_retries <- t.mcas_retries + 1;
              List.iter
                (fun r ->
                  Kv.submit_mcas (kv t ~ring:r ~node) ~id ~parts:reg.rg_parts)
                reg.rg_rings
            end;
            (* An Mdecide lost to a view change or minority rejection is
               never re-multicast by anyone else — recompute and resend. *)
            try_resolve t ~node id;
            Netsim.call_at t.sim ~at:(Netsim.now t.sim + period) tick
          end
        in
        Netsim.call_at t.sim ~at:(Netsim.now t.sim + period) tick
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

let drain_merge t ~node =
  let m = t.merges.(node) in
  let rec go () =
    match Merge.pop m with
    | None -> ()
    | Some (ring, it) ->
        Flight.record ~node:(pid t ~ring ~node) ~code:Flight.ev_merge ~a:ring
          ~b:(Merge.emitted m) ~c:0 ~d:0;
        List.iter (fun f -> f ~node ~ring it) t.merged_cbs;
        go ()
  in
  go ()

let observe t ~node ~ring (obs : Kv.observation) =
  t.last_activity.(pid t ~ring ~node) <- Netsim.now t.sim;
  match obs with
  | Kv.Applied { index; op; value } ->
      Merge.push t.merges.(node) ~ring
        (Merge.Item
           {
             mi_ring = ring;
             mi_index = index;
             mi_op = op;
             mi_value = value;
             mi_applied_at = Netsim.now t.sim;
           });
      drain_merge t ~node
  | Kv.Skipped { credits } ->
      Merge.push t.merges.(node) ~ring (Merge.Skip credits);
      drain_merge t ~node
  | Kv.Voted { id; rings; parts; _ } ->
      register t ~node ~id ~parts rings;
      try_resolve t ~node id;
      arm_termination t ~node id
  | Kv.Decided { id; commit } -> note_decision t ~node ~ring ~id commit
  | Kv.Installed _ ->
      (* A snapshot may have delivered vote-table state this node's
         coordinator was missing — and possibly a reconstructed park this
         node never saw delivered. The parked head carries the full op,
         so register it and arm termination here: without this, a park
         whose every original voter crashed would wait forever. *)
      (match Kv.parked_op (kv t ~ring ~node) with
      | Some (Op.Mcas { id; parts }) ->
          register t ~node ~id ~parts
            (List.map (fun p -> p.Op.mp_ring) parts);
          arm_termination t ~node id
      | _ -> ());
      Hashtbl.iter (fun id _ -> try_resolve t ~node id) t.registry
  | Kv.Read _ | Kv.Aborted | Kv.Reset -> ()

(* --- skip generators -------------------------------------------------- *)

(* Every node runs one generator per ring it participates in: if the
   ring has been silent at this node for a full interval, multicast a
   skip granting the merge a block of turn-passes. Deliveries (including
   skips) reset the clock, so a busy ring emits none and an idle ring
   emits one round per interval per node.

   Grants are deliberately stingy, because every queued credit is a
   merge turn the ring's next item must wait out (credits are consumed
   strictly in queue position) — over-granting during a long idle period
   leaves the ring's first item after waking stranded behind thousands
   of ceded turns, the merge-added latency spike the multiring bench
   gates against. Three rules bound the outstanding credits to at most
   two blocks (plus a brief designation handover overlap):

   - only the lowest alive physical node grants for a ring (the others
     keep ticking so designation fails over on a crash);
   - no grant while the node's own merge still holds items for the ring
     (a ring with pending items needs no silence cover);
   - no grant while the node's own merge holds a block's worth of
     unspent credits for the ring (its silence is already covered).

   All three read local state only; the skip itself still rides the
   ring's agreed stream, so every learner keeps identical per-ring
   input sequences and the merged order stays deterministic. *)
let install_skip_generators t =
  let designated node =
    let rec first i = if i >= t.nodes || t.alive_phys.(i) then i else first (i + 1) in
    first 0 = node
  in
  for node = 0 to t.nodes - 1 do
    for ring = 0 to t.rings - 1 do
      let p = pid t ~ring ~node in
      let rec tick () =
        if t.alive_phys.(node) then begin
          if
            designated node
            && Netsim.now t.sim - t.last_activity.(p) >= t.skip_every_ns
            && Kv.synced (kv t ~ring ~node)
            && Merge.pending t.merges.(node) ~ring = 0
            && Merge.unspent_credits t.merges.(node) ~ring < t.skip_credits
          then begin
            Flight.record ~node:p ~code:Flight.ev_skip ~a:ring
              ~b:t.skip_credits ~c:0 ~d:0;
            Kv.skip (kv t ~ring ~node) ~credits:t.skip_credits
          end;
          Netsim.call_at t.sim
            ~at:(Netsim.now t.sim + t.skip_every_ns)
            tick
        end
      in
      (* Staggered start so generators don't fire in one burst. *)
      Netsim.call_at t.sim ~at:(500_000 + (p * 37_000)) tick
    done
  done

(* --- construction ----------------------------------------------------- *)

let create ?(params = Kv_scenario.snappy_params ()) ?(net = Profile.gigabit)
    ?(tier = Profile.daemon) ?tiers ?(seed = 1L) ?(skip_every_ns = 250_000)
    ?(skip_credits = 32) ?(mcas_retry_ns = 8_000_000) ?controller ?wrap
    ?kv_bug ~rings ~nodes () =
  if rings < 1 then invalid_arg "Cluster.create: rings < 1";
  if nodes < 2 then invalid_arg "Cluster.create: nodes < 2";
  let { Kv_scenario.sim; members; daemons; kvs; oracles } =
    Kv_scenario.build_cluster ?tiers ?controller ?wrap ?kv_bug ~rings ~n:nodes
      ~net ~tier ~params ~seed ()
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
      merged_cbs = [];
      registry = Hashtbl.create 64;
      decisions = Hashtbl.create 64;
      last_activity = Array.make (rings * nodes) 0;
      alive_phys = Array.make nodes true;
      skip_every_ns;
      skip_credits;
      mcas_retry_ns;
      mcas_submitted = 0;
      mcas_retries = 0;
    }
  in
  Array.iteri
    (fun p kv ->
      let ring = p / nodes and node = p mod nodes in
      Kv.add_observer kv (fun obs -> observe t ~node ~ring obs))
    kvs;
  (* One ring's merge is the identity: a skip there is only traffic. *)
  if rings > 1 then install_skip_generators t;
  t

let on_merged t f = t.merged_cbs <- t.merged_cbs @ [ f ]
let merged_count t ~node = Merge.emitted t.merges.(node)
let merge_blocked t ~node ~ring = Merge.pending t.merges.(node) ~ring

(* --- client operations ------------------------------------------------ *)

let put t ~node ~key ~value =
  Kv.put (kv t ~ring:(shard_of_key t key) ~node) ~key ~value

let del t ~node ~key = Kv.del (kv t ~ring:(shard_of_key t key) ~node) ~key

let cas t ~node ~key ~expect ~value =
  Kv.cas (kv t ~ring:(shard_of_key t key) ~node) ~key ~expect ~value

let read t ~node ~key = Kv.read (kv t ~ring:(shard_of_key t key) ~node) ~key

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
   ring, with a deterministic retry loop — copies lost to a minority
   component or a view change are resubmitted (delivered duplicates
   dedup on [id]) until the submitting node sees a decision. *)
let mcas t ~node ~id ~checks ~writes =
  let parts = mcas_parts t ~checks ~writes in
  let involved = List.map (fun p -> p.Op.mp_ring) parts in
  register t ~node ~id ~parts involved;
  t.mcas_submitted <- t.mcas_submitted + 1;
  let submit () =
    List.iter
      (fun r -> Kv.submit_mcas (kv t ~ring:r ~node) ~id ~parts)
      involved
  in
  let rec retry () =
    if t.alive_phys.(node) && not (mcas_decided_at t ~node id) then begin
      t.mcas_retries <- t.mcas_retries + 1;
      submit ();
      try_resolve t ~node id;
      Netsim.call_at t.sim ~at:(Netsim.now t.sim + t.mcas_retry_ns) retry
    end
  in
  submit ();
  Netsim.call_at t.sim ~at:(Netsim.now t.sim + t.mcas_retry_ns) retry

let mcas_submitted t = t.mcas_submitted
let mcas_retries t = t.mcas_retries
let mcas_ids t =
  Hashtbl.fold (fun id r acc -> (id, r.rg_node, r.rg_rings) :: acc) t.registry []
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

(* Every ring's survivors pass {!Kv_scenario.kv_converged}, with no
   undecided parked mcas anywhere. The park check only applies while the
   survivors can still form a primary component: resolving a park takes
   an ordered Mdecide write, and a minority component deterministically
   rejects writes — a park frozen in a minority is correct, not stuck. *)
let kv_converged t =
  let alive = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.alive_phys in
  let primary = 2 * alive > t.nodes in
  List.for_all
    (fun ring ->
      let kvs = survivors t ~ring in
      Kv_scenario.kv_converged (Array.of_list kvs)
      && not (primary && List.exists Kv.mcas_parked kvs))
    (List.init t.rings Fun.id)

(* Every delivered item has drained through every survivor's merge —
   nothing is stuck behind a silent ring. Merged-stream *lengths* are
   deliberately not compared: a replica that caught up via snapshot
   transfer never saw the compressed ops as individual deliveries, so
   after a partition its learner's merged stream is legitimately
   shorter (fault-free runs assert stream equality separately). *)
let merge_settled t =
  let ok = ref true in
  for i = 0 to t.nodes - 1 do
    if t.alive_phys.(i) then
      for r = 0 to t.rings - 1 do
        if Merge.pending t.merges.(i) ~ring:r > 0 then ok := false
      done
  done;
  !ok

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
