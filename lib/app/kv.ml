open Aring_wire
module Daemon = Aring_daemon.Daemon
module Fnv = Aring_util.Fnv
module Flight = Aring_obs.Flight
module Metrics = Aring_obs.Metrics

let group = "kv"

type observation =
  | Applied of { index : int; op : Op.t; value : string option }
  | Read of { key : string; value : string option; token : int; sync : bool }
  | Installed of {
      donor : Types.pid;
      applied : int;
      entries : (string * string) list;
    }
  | Aborted
  | Reset
  | Voted of {
      id : string;
      vote : bool;
      parts : Op.mcas_part list;
    }
  | Decided of { id : string; commit : bool }
  | Skipped of { upto : int }

type mcas_status = Mcas_voted of bool | Mcas_decided of bool

type stats = {
  mutable ops_applied : int;
  mutable cas_failures : int;
  mutable rejected_writes : int;
  mutable reads : int;
  mutable sync_reads : int;
  mutable hellos_sent : int;
  mutable snapshots_sent : int;
  mutable installs : int;
  mutable xfer_aborts : int;
  mutable cold_resets : int;
  mutable buffered_peak : int;
  mutable decode_errors : int;
  mutable mcas_votes : int;
  mutable mcas_commits : int;
  mutable mcas_aborts : int;
  mutable mcas_dups : int;
  mutable skips : int;
}

type bug =
  | Bug_none
  | Bug_skip_apply of { every : int }
  | Bug_apply_before_election

(* The ops a replica holds back from a regular view until that view's
   election and, if the election makes it a receiver, through its
   incoming snapshot transfer: the donor and accumulating chunk /
   replay-buffer state, all keyed to the view. *)
type incoming = {
  mutable xf_donor : Types.pid;  (* -1 until the election names a donor *)
  mutable xf_total : int;  (* -1 until the first chunk arrives *)
  mutable xf_received : int;
  mutable xf_entries : (string * string) list;
  mutable xf_applied : int;
  mutable xf_buffer : Op.t list;  (* newest first *)
  mutable xf_buffered : int;  (* ops buffered since the donor was named *)
  mutable xf_meta : (string * int) list;  (* donor's mcas table *)
  mutable xf_park : Op.t list;  (* donor's parked head + queue, in order *)
}

(* An undecided cross-shard cas holding the apply pipeline: later writes
   queue behind it (strict FIFO — no bypass, so every replica of this
   ring applies the same sequence) until the per-node coordinator calls
   {!resolve_mcas}. *)
type mcas_active = { mc_id : string; mc_op : Op.t }

type t = {
  daemon : Daemon.t;
  me : Types.pid;
  session : Daemon.session;
  member_name : string;
  cluster_size : int;
  ring_id : int;  (* which ring of a multi-ring deployment this replica orders on *)
  bug : bug;
  mutable bug_writes : int;
  store : (string, string) Hashtbl.t;
  mutable applied_n : int;
  mutable synced_f : bool;
  mutable primary : bool;
  mutable view : Types.ring_id option;
  mutable view_members : Types.pid list;
  hellos : (Types.pid, int * int64 * bool) Hashtbl.t;
  mutable elected : bool;
  mutable xfer_in : incoming option;  (* from a regular view on *)
  pending : (int, string option -> token:int -> unit) Hashtbl.t;
  mcas_meta : (string, mcas_status) Hashtbl.t;
  mutable mcas_head : mcas_active option;
  mcas_q : Op.t Queue.t;
  mutable next_nonce : int;
  mutable observers : (observation -> unit) list;  (* registration order *)
  dec : Codec.decoder;  (* delivered ops are decoded in place through it *)
  (* The writes this replica submitted and has not seen delivered,
     oldest first: a ring of [own_len] ops from [own_head], in a
     power-of-two array that doubles when full. *)
  mutable own : Op.t array;
  mutable own_head : int;
  mutable own_len : int;
  stats : stats;
}

let node t = t.me
let applied t = t.applied_n
let synced t = t.synced_f
let in_transfer t =
  match t.xfer_in with Some xf -> xf.xf_donor >= 0 | None -> false
let settled t = t.elected && t.xfer_in = None
let mcas_parked t = t.mcas_head <> None

let parked_op t =
  match t.mcas_head with None -> None | Some h -> Some h.mc_op
let mcas_status t id = Hashtbl.find_opt t.mcas_meta id
let store_size t = Hashtbl.length t.store
let pending_sync_reads t = Hashtbl.length t.pending
let stats t = t.stats
let add_observer t f = t.observers <- t.observers @ [ f ]

let rec notify obs = function
  | [] -> ()
  | f :: rest ->
      f obs;
      notify obs rest

let observe t obs = notify obs t.observers

let holds t ~key v =
  match Hashtbl.find t.store key with
  | x -> String.equal x v
  | exception Not_found -> false

let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Status codes carried by Op.Mcas_table and folded into the digest. *)
let status_code = function
  | Mcas_voted false -> 0
  | Mcas_voted true -> 1
  | Mcas_decided false -> 2
  | Mcas_decided true -> 3

let status_of_code = function
  | 0 -> Mcas_voted false
  | 1 -> Mcas_voted true
  | 2 -> Mcas_decided false
  | _ -> Mcas_decided true

(* Order-independent store digest: per-entry FNV-1a hashes summed, seeded
   with the entry count. Election compares (applied, digest) pairs, so the
   digest need only separate states that differ in content. *)
let digest t =
  let base =
    Hashtbl.fold
      (fun k v acc ->
        Int64.add acc
          (Fnv.string (Fnv.string (Fnv.string Fnv.offset k) "\x00") v))
      t.store
      (Int64.of_int (Hashtbl.length t.store))
  in
  (* Parked-mcas and vote-table state must distinguish replicas whose
     stores match byte for byte: a park never advances [applied], yet a
     replica holding one diverges from a clean peer the moment the mcas
     resolves. Both folds are no-ops in single-ring deployments. *)
  let base =
    Hashtbl.fold
      (fun id st acc ->
        Int64.add acc
          (Fnv.string (Fnv.string Fnv.offset id)
             (String.make 1 (Char.chr (status_code st + 1)))))
      t.mcas_meta base
  in
  match t.mcas_head with
  | None -> base
  | Some { mc_op; _ } ->
      let h =
        Fnv.string Fnv.offset (Bytes.unsafe_to_string (Op.encode mc_op))
      in
      let h =
        Queue.fold
          (fun h op -> Fnv.string h (Bytes.unsafe_to_string (Op.encode op)))
          h t.mcas_q
      in
      Int64.add base h

let record_xfer t ~phase ~donor ~applied ~entries =
  match t.view with
  | Some view ->
      Flight.record_wide ~node:t.me ~code:Flight.ev_xfer ~a:donor ~b:phase
        ~c:applied ~d:entries ~e:(Flight.pack_ring view) ~f:0 ~g:0 ~h:0 ~i:0
  | None -> ()

let groups = [ group ]

(* The op is written once, by [Op.write], into the daemon's frame. *)
let multicast_op ?service t op =
  Daemon.multicast_write t.daemon t.session ?service ~groups Op.write op

(* --- op-log execution ------------------------------------------------ *)

let apply_write t op =
  t.applied_n <- t.applied_n + 1;
  let skip =
    match t.bug with
    | Bug_none | Bug_apply_before_election -> false
    | Bug_skip_apply { every } ->
        t.bug_writes <- t.bug_writes + 1;
        t.bug_writes mod every = 0
  in
  let key =
    match op with
    | Op.Put { key; value } ->
        if not skip then Hashtbl.replace t.store key value;
        key
    | Op.Del { key } ->
        if not skip then Hashtbl.remove t.store key;
        key
    | Op.Cas { key; expect; value } ->
        if Hashtbl.find_opt t.store key = expect then begin
          if not skip then Hashtbl.replace t.store key value
        end
        else t.stats.cas_failures <- t.stats.cas_failures + 1;
        key
    | Op.Sync_read _ | Op.Hello _ | Op.Chunk _ | Op.Mcas _ | Op.Mdecide _
    | Op.Skip _ | Op.Mcas_table _ ->
        assert false
  in
  t.stats.ops_applied <- t.stats.ops_applied + 1;
  let value = Hashtbl.find_opt t.store key in
  observe t (Applied { index = t.applied_n; op; value });
  Flight.record ~node:t.me ~code:Flight.ev_apply
    ~a:t.applied_n ~b:(if value = None then 1 else 0) ~c:0 ~d:0

(* The positions a skip passes hold no op; one behind us is a no-op. *)
let apply_skip t upto =
  t.stats.skips <- t.stats.skips + 1;
  if upto > t.applied_n then begin
    t.applied_n <- upto;
    observe t (Skipped { upto })
  end

let serve_sync t ~nonce ~key =
  t.stats.sync_reads <- t.stats.sync_reads + 1;
  let value = Hashtbl.find_opt t.store key in
  let token = t.applied_n in
  observe t (Read { key; value; token; sync = true });
  match Hashtbl.find_opt t.pending nonce with
  | Some cb ->
      Hashtbl.remove t.pending nonce;
      cb value ~token
  | None -> ()

(* [buffered_peak] counts transfer buffering, not the pre-election hold. *)
let buffer_op t xf op =
  xf.xf_buffer <- op :: xf.xf_buffer;
  if xf.xf_donor >= 0 then begin
    xf.xf_buffered <- xf.xf_buffered + 1;
    if xf.xf_buffered > t.stats.buffered_peak then
      t.stats.buffered_peak <- xf.xf_buffered
  end

(* --- cross-shard multi-key cas (Mcas) -------------------------------- *)

let my_part t parts =
  List.find_opt (fun p -> p.Op.mp_ring = t.ring_id) parts

(* Vote = the part's checks evaluated against the store at the copy's
   delivery position — the same position, hence the same store, at every
   replica of this ring, so every replica records the same vote. A
   [wound] vote (wait-die victim, see [deliver_write]) is forced false.
   The replica parks only on a true vote: a false vote already fixes the
   global outcome (abort), so blocking the ring behind it would buy
   nothing. *)
let start_mcas ?(wound = false) t op =
  match op with
  | Op.Mcas { id; parts } -> (
      match Hashtbl.find_opt t.mcas_meta id with
      | Some _ -> t.stats.mcas_dups <- t.stats.mcas_dups + 1
      | None -> (
          match my_part t parts with
          | None -> ()  (* copy reached a ring holding no share of it *)
          | Some p ->
              let vote =
                (not wound)
                && List.for_all
                     (fun (k, x) -> Hashtbl.find_opt t.store k = x)
                     p.Op.mp_checks
              in
              Hashtbl.replace t.mcas_meta id (Mcas_voted vote);
              t.stats.mcas_votes <- t.stats.mcas_votes + 1;
              if vote then t.mcas_head <- Some { mc_id = id; mc_op = op };
              Flight.record ~node:t.me
                ~code:Flight.ev_mcas ~a:t.ring_id
                ~b:(if vote then 1 else 0)
                ~c:(if wound then 2 else 0)
                ~d:(List.length parts);
              observe t
                (Voted { id; vote; parts }))
      )
  | _ -> assert false

(* Deliver a write at a synced, untransferring replica: strict FIFO
   through any parked Mcas — while one is undecided, every later write
   queues behind it, so the apply sequence is identical at every replica
   regardless of when the sequenced decision arrives. One exception
   (wait-die): a {e fresh} Mcas delivered while an {e older} one (by id
   order) is parked votes an immediate forced abort instead of queueing.
   Parks only ever wait for younger parks, so cross-ring park cycles —
   two rings parking two cross-shard ops in opposite orders, each
   blocking the vote the other needs — cannot form. The victim's park
   state at the comparison is itself ring-sequenced (parks resolve at
   Mdecide delivery, never from node-local timing), so every replica of
   the ring wounds the same ops. *)
let rec deliver_write t op =
  match t.mcas_head with
  | None -> (
      match op with
      | Op.Mcas _ -> start_mcas t op
      | Op.Skip { upto } -> apply_skip t upto
      | _ -> apply_write t op)
  | Some head -> (
      match op with
      | Op.Mcas { id; _ }
        when (not (Hashtbl.mem t.mcas_meta id)) && id > head.mc_id ->
          start_mcas ~wound:true t op
      | _ -> Queue.push op t.mcas_q)

and drain_mcas_q t =
  while t.mcas_head = None && not (Queue.is_empty t.mcas_q) do
    deliver_write t (Queue.pop t.mcas_q)
  done

(* Delivery of an {!Op.Mdecide}: the park resolves at this op's position
   in the ring's total order, so park/queue evolution is a pure function
   of the delivered sequence — identical at every replica no matter when
   each node's coordinator learned the votes. *)
let deliver_decide t ~id ~commit =
  match t.mcas_head with
  | Some { mc_id; mc_op } when mc_id = id ->
      Hashtbl.replace t.mcas_meta id (Mcas_decided commit);
      t.mcas_head <- None;
      (if commit then begin
         t.stats.mcas_commits <- t.stats.mcas_commits + 1;
         match mc_op with
         | Op.Mcas { parts; _ } -> (
             match my_part t parts with
             | Some p ->
                 List.iter
                   (fun (key, value) -> apply_write t (Op.Put { key; value }))
                   p.Op.mp_writes
             | None -> ())
         | _ -> ()
       end
       else t.stats.mcas_aborts <- t.stats.mcas_aborts + 1);
      Flight.record ~node:t.me ~code:Flight.ev_mcas
        ~a:t.ring_id ~b:(if commit then 3 else 2) ~c:1 ~d:0;
      observe t (Decided { id; commit });
      drain_mcas_q t
  | _ -> (
      (* Not parked here: the copy voted false (no park), was never
         delivered (minority view), or the park was superseded by a
         snapshot install. Record the decision for dedup — the writes,
         if any, reach this replica through the donor's snapshot, never
         out of delivery order. *)
      match Hashtbl.find_opt t.mcas_meta id with
      | Some (Mcas_decided _) -> t.stats.mcas_dups <- t.stats.mcas_dups + 1
      | _ ->
          Hashtbl.replace t.mcas_meta id (Mcas_decided commit);
          (if commit then t.stats.mcas_commits <- t.stats.mcas_commits + 1
           else t.stats.mcas_aborts <- t.stats.mcas_aborts + 1);
          observe t (Decided { id; commit }))

let clear_park t =
  t.mcas_head <- None;
  Queue.clear t.mcas_q

(* --- state transfer -------------------------------------------------- *)

let cold_reset t =
  Hashtbl.reset t.store;
  t.applied_n <- 0;
  t.synced_f <- true;
  Hashtbl.reset t.mcas_meta;
  clear_park t;
  t.stats.cold_resets <- t.stats.cold_resets + 1;
  observe t Reset;
  record_xfer t ~phase:Flight.xfer_reset ~donor:t.me ~applied:0 ~entries:0

(* Bound on the encoded size of one snapshot chunk. *)
let max_chunk_bytes = 4096

(* Greedy size-bounded chunking, in order: a new chunk starts when the
   next item would push a non-empty one past [max_chunk_bytes]. No
   items, no chunks. *)
let chunk ~cost items =
  let chunks, last, _ =
    List.fold_left
      (fun (chunks, cur, bytes) item ->
        let c = cost item in
        if cur <> [] && bytes + c > max_chunk_bytes then
          (List.rev cur :: chunks, [ item ], c)
        else (chunks, item :: cur, bytes + c))
      ([], [], 0) items
  in
  List.rev (if last = [] then chunks else List.rev last :: chunks)

let stream_snapshot t ~view =
  let applied = t.applied_n in
  (* An empty store still streams one empty chunk, so receivers always
     see [total] >= 1. *)
  let chunks =
    let cost (k, v) = String.length k + String.length v + 10 in
    match chunk ~cost (entries t) with [] -> [ [] ] | chunks -> chunks
  in
  let total = List.length chunks in
  t.stats.snapshots_sent <- t.stats.snapshots_sent + 1;
  record_xfer t ~phase:Flight.xfer_snapshot ~donor:t.me ~applied
    ~entries:(Hashtbl.length t.store);
  (* Mcas vote/decision table and parked-op state travel ahead of the
     chunks (only when non-empty, so single-ring streams are unchanged):
     the snapshot store excludes an undecided park's effects, and the
     receiver must reconstruct the park rather than lose the op. Streamed
     as multiple size-bounded messages — one table can exceed a switch
     buffer (a parked queue holds every write delivered since the park),
     and an oversized multicast that the network can never carry would
     stall the ring's delivery for every other member. Receivers append
     table messages in stream order, so the split is invisible. *)
  let meta =
    Hashtbl.fold (fun id st acc -> (id, status_code st) :: acc) t.mcas_meta []
    |> List.sort compare
  in
  let parked =
    match t.mcas_head with
    | None -> []
    | Some { mc_op; _ } ->
        Op.encode mc_op
        :: List.rev
             (Queue.fold (fun acc op -> Op.encode op :: acc) [] t.mcas_q)
  in
  let table_batches =
    chunk
      ~cost:(function
        | Either.Left (id, _) -> String.length id + 12
        | Either.Right b -> Bytes.length b + 8)
      (List.map Either.left meta @ List.map Either.right parked)
    |> List.map (List.partition_map Fun.id)
  in
  List.iter
    (fun (entries, parked) ->
      multicast_op t
        (Op.Mcas_table { view; donor = t.me; entries; parked }))
    table_batches;
  List.iteri
    (fun index entries ->
      multicast_op t
        (Op.Chunk { view; donor = t.me; index; total; applied; entries }))
    chunks

let incoming () =
  {
    xf_donor = -1;
    xf_total = -1;
    xf_received = 0;
    xf_entries = [];
    xf_applied = 0;
    xf_buffer = [];
    xf_buffered = 0;
    xf_meta = [];
    xf_park = [];
  }

(* Apply the ops held back, in delivery order — through the
   parking-aware path, so they queue behind a restored park. *)
let replay t xf =
  List.iter
    (fun op ->
      match op with
      | Op.Put _ | Op.Del _ | Op.Cas _ | Op.Mcas _ | Op.Skip _ ->
          deliver_write t op
      | Op.Mdecide { id; commit } -> deliver_decide t ~id ~commit
      | Op.Sync_read { nonce; key; _ } -> serve_sync t ~nonce ~key
      | Op.Hello _ | Op.Chunk _ | Op.Mcas_table _ -> assert false)
    (List.rev xf.xf_buffer)

(* Every replica elects at the same point of the view's total order,
   having applied nothing of the view yet, so the donor's snapshot and
   every receiver's held-back ops start at the same position. *)
let elect t ~view =
  t.elected <- true;
  let candidates =
    List.filter_map
      (fun m ->
        match Hashtbl.find_opt t.hellos m with
        | Some (a, d, true) -> Some (m, a, d)
        | Some (_, _, false) | None -> None)
      t.view_members
  in
  (match candidates with
  | [] -> cold_reset t
  | first :: rest ->
      let donor, d_applied, d_digest =
        List.fold_left
          (fun (bm, ba, bd) (m, a, d) ->
            if a > ba || (a = ba && m < bm) then (m, a, d) else (bm, ba, bd))
          first rest
      in
      record_xfer t ~phase:Flight.xfer_elect ~donor ~applied:d_applied ~entries:0;
      let differs m =
        match Hashtbl.find_opt t.hellos m with
        | Some (a, d, s) -> (not s) || a <> d_applied || d <> d_digest
        | None -> true
      in
      if t.me = donor then begin
        if List.exists differs t.view_members then stream_snapshot t ~view
      end
      else if differs t.me then begin
        t.synced_f <- false;
        Option.iter (fun xf -> xf.xf_donor <- donor) t.xfer_in
      end);
  (* Not a receiver: apply what the view held back. *)
  match t.xfer_in with
  | Some xf when xf.xf_donor < 0 ->
      t.xfer_in <- None;
      replay t xf
  | _ -> ()

let install t xf =
  Hashtbl.reset t.store;
  List.iter (fun (k, v) -> Hashtbl.replace t.store k v) xf.xf_entries;
  t.applied_n <- xf.xf_applied;
  t.synced_f <- true;
  t.xfer_in <- None;
  t.stats.installs <- t.stats.installs + 1;
  (* Adopt the donor's mcas state wholesale: the snapshot rebases this
     replica onto the donor's log prefix, so the donor's vote table and
     park (not any stale local ones) are the matching cross-shard
     state. *)
  Hashtbl.reset t.mcas_meta;
  List.iter
    (fun (id, code) -> Hashtbl.replace t.mcas_meta id (status_of_code code))
    xf.xf_meta;
  clear_park t;
  (match xf.xf_park with
  | [] -> ()
  | head :: queued ->
      (match head with
      | Op.Mcas { id; _ } -> t.mcas_head <- Some { mc_id = id; mc_op = head }
      | _ -> ());
      List.iter (fun op -> Queue.push op t.mcas_q) queued);
  observe t
    (Installed
       { donor = xf.xf_donor; applied = xf.xf_applied; entries = xf.xf_entries });
  record_xfer t ~phase:Flight.xfer_install ~donor:xf.xf_donor ~applied:xf.xf_applied
    ~entries:(List.length xf.xf_entries);
  replay t xf

(* Ops held back for a view that never elected are dropped with it: no
   replica applied them, and the next view's election compares states
   from before them. *)
let abort_transfer t =
  match t.xfer_in with
  | None -> ()
  | Some xf ->
      t.xfer_in <- None;
      if xf.xf_donor >= 0 then begin
        t.stats.xfer_aborts <- t.stats.xfer_aborts + 1;
        observe t Aborted;
        record_xfer t ~phase:Flight.xfer_abort ~donor:xf.xf_donor
          ~applied:t.applied_n ~entries:0
      end

(* --- delivery -------------------------------------------------------- *)

let handle_hello t (h : Op.t) =
  match (h, t.view) with
  | Op.Hello { view; daemon; applied; digest; synced }, Some v
    when view = v && not t.elected ->
      Hashtbl.replace t.hellos daemon (applied, digest, synced);
      if List.for_all (fun m -> Hashtbl.mem t.hellos m) t.view_members then
        elect t ~view:v
  | _ -> ()

let handle_chunk t (c : Op.t) =
  match (c, t.xfer_in, t.view) with
  | ( Op.Chunk { view; donor; total; applied; entries; _ },
      Some xf,
      Some v )
    when view = v && donor = xf.xf_donor ->
      if xf.xf_total < 0 then xf.xf_total <- total;
      xf.xf_received <- xf.xf_received + 1;
      xf.xf_entries <- List.rev_append entries xf.xf_entries;
      xf.xf_applied <- applied;
      if xf.xf_received >= xf.xf_total then install t xf
  | _ -> ()

let handle_table t (m : Op.t) =
  match (m, t.xfer_in, t.view) with
  | Op.Mcas_table { view; donor; entries; parked }, Some xf, Some v
    when view = v && donor = xf.xf_donor ->
      (* Append: the donor streams the table as size-bounded batches, in
         order, ahead of the store chunks. *)
      xf.xf_meta <- xf.xf_meta @ entries;
      xf.xf_park <- xf.xf_park @ List.map Op.decode parked
  | _ -> ()

(* The record a delivered op is held back on, if any. With
   [Bug_apply_before_election] a replica applies the ops of the window
   before the election at once, on whatever state it held. *)
let holding t =
  match t.xfer_in with
  | Some xf when xf.xf_donor < 0 && t.bug = Bug_apply_before_election -> None
  | held -> held

let handle_op t op =
  match op with
  | Op.Hello _ -> handle_hello t op
  | Op.Chunk _ -> handle_chunk t op
  | Op.Mcas_table _ -> handle_table t op
  | Op.Sync_read { reader; nonce; key } ->
      if reader = t.member_name then begin
        match holding t with
        | Some xf -> buffer_op t xf op
        | None -> serve_sync t ~nonce ~key
      end
  | Op.Put _ | Op.Del _ | Op.Cas _ | Op.Mcas _ | Op.Mdecide _ | Op.Skip _ ->
      (* Primary-component gate: every member of the delivering
         configuration makes the same decision, so an op executes either
         at all of them or at none. (The daemon routes group traffic to a
         session from its local join request onward, so every view
         member's replica sees the same per-view op stream — including
         ops ordered before its re-announced Join lands.) *)
      if not t.primary then
        t.stats.rejected_writes <- t.stats.rejected_writes + 1
      else begin
        match holding t with
        | Some xf -> buffer_op t xf op
        | None -> (
            match op with
            | Op.Mdecide { id; commit } -> deliver_decide t ~id ~commit
            | _ -> deliver_write t op)
      end

(* --- own writes ------------------------------------------------------ *)

(* The filler of every slot of [own] that holds no op: a constant, so a
   taken slot keeps nothing alive. It is never read. *)
let no_own = Op.Skip { upto = 0 }

let grow_own t =
  let cap = Array.length t.own in
  let own = Array.make (max 16 (2 * cap)) no_own in
  for i = 0 to t.own_len - 1 do
    own.(i) <- t.own.((t.own_head + i) land (cap - 1))
  done;
  t.own <- own;
  t.own_head <- 0

(* Take own writes from the front until one is the delivered op, and
   hand it on. A write that never arrived (a view change lost it) is
   older than this delivery, so it is dropped here; the byte check means
   a stale front costs a decode, never a wrong op. *)
let rec take_own t =
  t.own_len > 0
  &&
  let op = t.own.(t.own_head) in
  t.own.(t.own_head) <- no_own;
  t.own_head <- (t.own_head + 1) land (Array.length t.own - 1);
  t.own_len <- t.own_len - 1;
  if Op.matches t.dec op then begin
    handle_op t op;
    true
  end
  else take_own t

let on_message t ~sender ~groups:_ _service payload =
  Codec.decoder_reset_view t.dec payload;
  let own_write = String.equal sender t.member_name && Op.starts_write t.dec in
  if not (own_write && take_own t) then
    match Op.decode_from t.dec with
    | op -> handle_op t op
    | exception Codec.Decode_error _ ->
        t.stats.decode_errors <- t.stats.decode_errors + 1

let on_view t (v : Aring_ring.Participant.view) =
  t.primary <- 2 * List.length v.members > t.cluster_size;
  if not v.transitional then begin
    (* A regular configuration mid-transfer means the transfer's view is
       gone: discard and let this view's Hello round re-elect. *)
    abort_transfer t;
    t.xfer_in <- Some (incoming ());
    t.view <- Some v.view_id;
    t.view_members <- v.members;
    Hashtbl.reset t.hellos;
    t.elected <- false;
    t.stats.hellos_sent <- t.stats.hellos_sent + 1;
    record_xfer t ~phase:Flight.xfer_hello ~donor:t.me ~applied:t.applied_n
      ~entries:(Hashtbl.length t.store);
    multicast_op t
      (Op.Hello
         {
           view = v.view_id;
           daemon = t.me;
           applied = t.applied_n;
           digest = digest t;
           synced = t.synced_f;
         })
  end

(* --- client API ------------------------------------------------------ *)

(* A client write is multicast, then kept until its own delivery, which
   applies it instead of a decoded copy (see [on_message]). *)
let submit_write t op =
  multicast_op t op;
  if t.own_len = Array.length t.own then grow_own t;
  t.own.((t.own_head + t.own_len) land (Array.length t.own - 1)) <- op;
  t.own_len <- t.own_len + 1

let put t ~key ~value = submit_write t (Op.Put { key; value })
let del t ~key = submit_write t (Op.Del { key })

let cas t ~key ~expect ~value = submit_write t (Op.Cas { key; expect; value })

let submit_mcas t ~id ~parts = multicast_op t (Op.Mcas { id; parts })
let submit_decide t ~id ~commit = multicast_op t (Op.Mdecide { id; commit })
let skip t ~upto = multicast_op t (Op.Skip { upto })

let read t ~key =
  t.stats.reads <- t.stats.reads + 1;
  let value = Hashtbl.find_opt t.store key in
  let token = t.applied_n in
  observe t (Read { key; value; token; sync = false });
  (value, token)

let sync_read t ~key ~on_result =
  let nonce = t.next_nonce in
  t.next_nonce <- nonce + 1;
  Hashtbl.replace t.pending nonce on_result;
  multicast_op ~service:Types.Safe t
    (Op.Sync_read { reader = t.member_name; nonce; key })

let create ?(bug = Bug_none) ?(ring = 0) ~cluster_size ~daemon () =
  if cluster_size < 1 then invalid_arg "Kv.create: cluster_size < 1";
  let tref = ref None in
  let callbacks =
    {
      Daemon.on_message =
        (fun ~sender ~groups service payload ->
          match !tref with
          | Some t -> on_message t ~sender ~groups service payload
          | None -> ());
      on_group_view = (fun ~group:_ ~members:_ -> ());
    }
  in
  let session = Daemon.connect daemon ~name:"kv" callbacks in
  let t =
    {
      daemon;
      me = Daemon.pid daemon;
      session;
      member_name = Daemon.session_member_name daemon session;
      cluster_size;
      ring_id = ring;
      bug;
      bug_writes = 0;
      store = Hashtbl.create 64;
      applied_n = 0;
      synced_f = true;
      primary = true;
      view = None;
      view_members = [];
      hellos = Hashtbl.create 8;
      elected = false;
      xfer_in = None;
      pending = Hashtbl.create 8;
      mcas_meta = Hashtbl.create 8;
      mcas_head = None;
      mcas_q = Queue.create ();
      next_nonce = 0;
      observers = [];
      dec = Codec.decoder_empty ();
      own = [||];
      own_head = 0;
      own_len = 0;
      stats =
        {
          ops_applied = 0;
          cas_failures = 0;
          rejected_writes = 0;
          reads = 0;
          sync_reads = 0;
          hellos_sent = 0;
          snapshots_sent = 0;
          installs = 0;
          xfer_aborts = 0;
          cold_resets = 0;
          buffered_peak = 0;
          decode_errors = 0;
          mcas_votes = 0;
          mcas_commits = 0;
          mcas_aborts = 0;
          mcas_dups = 0;
          skips = 0;
        };
    }
  in
  tref := Some t;
  Daemon.set_view_handler daemon (fun v -> on_view t v);
  Daemon.join daemon session group;
  t

let preload t entries =
  if t.applied_n > 0 || t.view <> None then
    invalid_arg "Kv.preload: replica already running";
  Hashtbl.reset t.store;
  List.iter (fun (k, v) -> Hashtbl.replace t.store k v) entries;
  (* Report as a self-installed snapshot so any attached oracle's shadow
     starts from the same contents. *)
  observe t (Installed { donor = t.me; applied = 0; entries })

let record_metrics ?(prefix = "") t reg =
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
  let g name v = Metrics.set (Metrics.gauge reg (prefix ^ name)) v in
  c "app.ops_applied" t.stats.ops_applied;
  c "app.cas_failures" t.stats.cas_failures;
  c "app.rejected_writes" t.stats.rejected_writes;
  c "app.reads" t.stats.reads;
  c "app.sync_reads" t.stats.sync_reads;
  c "app.hellos_sent" t.stats.hellos_sent;
  c "app.snapshots_sent" t.stats.snapshots_sent;
  c "app.installs" t.stats.installs;
  c "app.xfer_aborts" t.stats.xfer_aborts;
  c "app.cold_resets" t.stats.cold_resets;
  c "app.decode_errors" t.stats.decode_errors;
  c "app.mcas_votes" t.stats.mcas_votes;
  c "app.mcas_commits" t.stats.mcas_commits;
  c "app.mcas_aborts" t.stats.mcas_aborts;
  c "app.mcas_dups" t.stats.mcas_dups;
  c "app.skips" t.stats.skips;
  g "app.store_size" (float_of_int (Hashtbl.length t.store));
  g "app.applied" (float_of_int t.applied_n);
  g "app.buffered_peak" (float_of_int t.stats.buffered_peak)
