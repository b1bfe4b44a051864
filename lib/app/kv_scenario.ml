open Aring_ring
open Aring_sim
module Daemon = Aring_daemon.Daemon

type partition = { part_at_ns : int; heal_at_ns : int; island : int list }

let ms n = n * 1_000_000

let pad tag bytes =
  let b = Bytes.make (max (String.length tag) bytes) '.' in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  Bytes.unsafe_to_string b

type cluster = {
  sim : Netsim.t;
  members : Member.t array;
  daemons : Daemon.t array;
  kvs : Kv.t array;
  oracles : Oracle.t array;
}

(* Construction order is part of every pinned stream: all members, then
   all daemons, then all replicas, then the oracles attach, then the
   sim. Callers that observe replicas register after this returns. *)
let build_cluster ?tiers ?wrap ?kv_bug ~rings ~n ~net ~params ~seed () =
  let total = rings * n in
  let members =
    Array.init total (fun p ->
        let initial_ring = Array.init n (fun i -> (p / n * n) + i) in
        Member.create ~params ~me:p ~initial_ring ())
  in
  let daemons = Array.map (fun member -> Daemon.create ~member ()) members in
  let kvs =
    Array.init total (fun p ->
        let ring = p / n in
        let bug = Option.bind kv_bug (fun f -> f ~ring ~node:(p mod n)) in
        Kv.create ?bug ~ring ~cluster_size:n ~daemon:daemons.(p) ())
  in
  let oracles = Array.init rings (fun _ -> Oracle.create ()) in
  Array.iteri (fun p kv -> Oracle.attach oracles.(p / n) kv) kvs;
  let participants =
    Array.mapi
      (fun p d ->
        let part = Daemon.participant d in
        match wrap with None -> part | Some f -> f ~pid:p part)
      daemons
  in
  let tiers =
    match tiers with
    | None -> Array.make total Profile.daemon
    | Some phys ->
        if Array.length phys <> n then
          invalid_arg "Kv_scenario.build_cluster: tiers must cover the nodes";
        Array.init total (fun p -> phys.(p mod n))
  in
  let sim = Netsim.create ~net ~tiers ~participants ~seed () in
  if rings > 1 then Netsim.set_domains sim (Array.init total (fun p -> p / n));
  { sim; members; daemons; kvs; oracles }

(* Participant [pid] is physical node [pid mod n]: on a multi-ring
   deployment the island is cut away in every ring. *)
let install_partition sim n (p : partition) =
  let inside = Array.make n false in
  List.iter (fun i -> inside.(i) <- true) p.island;
  Netsim.set_drop sim (fun ~src ~dst _ ->
      let now = Netsim.now sim in
      now >= p.part_at_ns && now < p.heal_at_ns
      && inside.(src mod n) <> inside.(dst mod n))

(* Cheapest check first: a digest hashes the whole store, so each
   replica is hashed at most once, and only once every replica is
   settled, synced and at the same applied count. *)
let kv_converged kvs =
  Array.length kvs = 0
  ||
  let applied0 = Kv.applied kvs.(0) in
  Array.for_all
    (fun kv -> Kv.settled kv && Kv.synced kv && Kv.applied kv = applied0)
    kvs
  &&
  let digest0 = Kv.digest kvs.(0) in
  let rec same_digest i =
    i >= Array.length kvs || (Kv.digest kvs.(i) = digest0 && same_digest (i + 1))
  in
  same_digest 1

type transfer_result = {
  entries_transferred : int;
  bytes_transferred : int;
  xfer_us : float;
  total_installs : int;
}

let measure_transfer ~store_entries =
  let n = 4 in
  let cl =
    build_cluster ~rings:1 ~n ~net:Profile.gigabit ~params:Params.snappy
      ~seed:7L ()
  in
  let sim = cl.sim and kvs = cl.kvs in
  (* Last regular-view delivery time per node: the install is timed
     from the merge view. *)
  let view_ns = Array.make n 0 in
  Netsim.on_view sim (fun ~at:node ~now (v : Participant.view) ->
      if not v.transitional then view_ns.(node) <- now);
  let value = String.make 128 'x' in
  let preloaded =
    List.init store_entries (fun i -> (Printf.sprintf "p%06d" i, value))
  in
  Array.iter (fun kv -> Kv.preload kv preloaded) kvs;
  let joiner = n - 1 in
  let part = { part_at_ns = ms 5; heal_at_ns = ms 120; island = [ joiner ] } in
  install_partition sim n part;
  (* Diverge the majority so the healed minority member needs the
     snapshot; writes ride node 0's replica while the island is cut. *)
  let burst = 64 in
  for i = 0 to burst - 1 do
    Netsim.call_at sim
      ~at:(ms 20 + (i * 300_000))
      (fun () ->
        Kv.put kvs.(0) ~key:(Printf.sprintf "b%03d" i) ~value:"burst")
  done;
  let install = ref None in
  Kv.add_observer kvs.(joiner) (function
    | Kv.Installed { entries; _ } when Netsim.now sim > part.heal_at_ns ->
        let bytes =
          List.fold_left
            (fun acc (k, v) -> acc + String.length k + String.length v)
            0 entries
        in
        install :=
          Some
            ( List.length entries,
              bytes,
              float_of_int (Netsim.now sim - view_ns.(joiner)) /. 1e3 )
    | _ -> ());
  let deadline = ms 2_000 in
  let t = ref 0 in
  while !install = None && !t < deadline do
    t := !t + ms 25;
    Netsim.run_until sim !t
  done;
  match !install with
  | None ->
      failwith
        (Printf.sprintf
           "Kv_scenario.measure_transfer: no install within %dms (entries=%d)"
           (deadline / ms 1) store_entries)
  | Some (entries_transferred, bytes_transferred, xfer_us) ->
      (* Let the replay settle, then sanity-check convergence. *)
      Netsim.run_until sim (!t + ms 200);
      let oracle = cl.oracles.(0) in
      Oracle.check_convergence oracle (Array.to_list kvs);
      if Oracle.violation_count oracle > 0 then
        failwith
          (Format.asprintf "Kv_scenario.measure_transfer: %a" Oracle.pp oracle);
      {
        entries_transferred;
        bytes_transferred;
        xfer_us;
        total_installs =
          Array.fold_left
            (fun acc kv -> acc + (Kv.stats kv).Kv.installs)
            0 kvs;
      }
