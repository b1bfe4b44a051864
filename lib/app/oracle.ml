open Aring_wire

type violation_kind =
  | Stale_state
  | Stale_read
  | Non_monotonic_read
  | Apply_gap
  | Divergence
  | Unsynced
  | Log_divergence
  | Merge_order

type violation = {
  o_node : Types.pid;
  o_kind : violation_kind;
  o_detail : string;
}

let kind_label = function
  | Stale_state -> "stale_state"
  | Stale_read -> "stale_read"
  | Non_monotonic_read -> "non_monotonic_read"
  | Apply_gap -> "apply_gap"
  | Divergence -> "divergence"
  | Unsynced -> "unsynced"
  | Log_divergence -> "log_divergence"
  | Merge_order -> "merge_order"

type shadow = {
  sh_store : (string, string) Hashtbl.t;
  mutable sh_index : int;
  mutable sh_token : int;
}

(* Violation records kept; all are counted. *)
let max_violations = 100

(* The ring's op log as replicas apply it: at each position, the op
   and how many replicas applied it (0: no entry). Positions every
   replica has passed are pruned once the entries double, so the log
   holds about the spread between the fastest and the slowest replica.
   Entries live in position-indexed arrays, a circular window over
   positions [pruned + 1, pruned + capacity] that doubles when a
   position lands past it, so an apply allocates nothing.
   (Keeping a hash of each op instead would hold no value alive, but
   hashing every apply cost about an eighth of uniform_4r's set-up
   CPU.) *)
type log = {
  mutable ops : Op.t array;
  mutable counts : int array;
  mutable size : int;  (* positions with an entry *)
  mutable pruned : int;  (* positions at or below it are gone *)
  mutable prune_at : int;
}

let min_prune = 256
let initial_cells = 512

(* The filler of every position without an entry; never compared. *)
let no_op = Op.Skip { upto = 0 }

type t = {
  mutable kept : violation list;  (* newest first *)
  mutable total : int;
  shadows : (Types.pid, shadow) Hashtbl.t;
  mutable replicas : Kv.t list;
  log : log;
}

let create () =
  {
    kept = [];
    total = 0;
    shadows = Hashtbl.create 8;
    replicas = [];
    log =
      {
        ops = Array.make initial_cells no_op;
        counts = Array.make initial_cells 0;
        size = 0;
        pruned = 0;
        prune_at = min_prune;
      };
  }

let violation t ~node kind fmt =
  Printf.ksprintf
    (fun detail ->
      t.total <- t.total + 1;
      if List.length t.kept < max_violations then
        t.kept <- { o_node = node; o_kind = kind; o_detail = detail } :: t.kept)
    fmt

let shadow_of t node =
  match Hashtbl.find t.shadows node with
  | s -> s
  | exception Not_found ->
      let s = { sh_store = Hashtbl.create 64; sh_index = 0; sh_token = 0 } in
      Hashtbl.replace t.shadows node s;
      s

(* [Hashtbl.find_opt store key = v] without building the option. *)
let holds store key v =
  match Hashtbl.find store key with
  | x -> ( match v with Some y -> String.equal x y | None -> false)
  | exception Not_found -> Option.is_none v

let str_opt = function None -> "absent" | Some v -> Printf.sprintf "%S" v

let slot log p = p land (Array.length log.counts - 1)

(* Position [p]'s slot, if [p] has an entry: every entry lies in the
   window above [pruned]. *)
let find log p =
  if p > log.pruned && p - log.pruned <= Array.length log.counts then
    let i = slot log p in
    if log.counts.(i) > 0 then i else -1
  else -1

let remove log p =
  let i = slot log p in
  if log.counts.(i) > 0 then begin
    log.counts.(i) <- 0;
    log.ops.(i) <- no_op;
    log.size <- log.size - 1
  end

(* Double the window until it reaches [p], re-slotting every entry. *)
let grow log p =
  let cap = Array.length log.counts in
  let cap' = ref (2 * cap) in
  while p - log.pruned > !cap' do cap' := 2 * !cap' done;
  let ops = Array.make !cap' no_op and counts = Array.make !cap' 0 in
  for q = log.pruned + 1 to log.pruned + cap do
    let i = q land (cap - 1) in
    if log.counts.(i) > 0 then begin
      ops.(q land (!cap' - 1)) <- log.ops.(i);
      counts.(q land (!cap' - 1)) <- log.counts.(i)
    end
  done;
  log.ops <- ops;
  log.counts <- counts

let prune log shadows =
  let low = Hashtbl.fold (fun _ sh low -> min low sh.sh_index) shadows max_int in
  (* Past the window there is nothing left to remove. *)
  for p = log.pruned + 1 to min low (log.pruned + Array.length log.counts) do
    remove log p
  done;
  log.pruned <- max log.pruned low;
  log.prune_at <- max min_prune (2 * log.size)

let reset_log log =
  Array.fill log.ops 0 (Array.length log.ops) no_op;
  Array.fill log.counts 0 (Array.length log.counts) 0;
  log.size <- 0;
  log.pruned <- 0

(* A replica that applies position [index] applies the op a majority of
   the ring's replicas applied there. An op fewer have applied can still
   lose the position: an agreed op delivered by a member cut off from
   its view before the rest received it (ROADMAP, Known bugs). *)
let check_position t ~node index op =
  let log = t.log in
  let i = find log index in
  if i >= 0 then begin
    let e_op = log.ops.(i) and e_count = log.counts.(i) in
    if e_op = op then log.counts.(i) <- e_count + 1
    else if 2 * e_count > List.length t.replicas then
      violation t ~node Log_divergence
        "position %d: applied %s, but %d replicas applied %s there" index
        (Format.asprintf "%a" Op.pp op)
        e_count
        (Format.asprintf "%a" Op.pp e_op)
    else begin
      log.ops.(i) <- op;
      log.counts.(i) <- 1
    end
  end
  else if index > log.pruned then begin
    if index - log.pruned > Array.length log.counts then grow log index;
    let i = slot log index in
    log.ops.(i) <- op;
    log.counts.(i) <- 1;
    log.size <- log.size + 1;
    if log.size >= log.prune_at then prune log t.shadows
  end

let observe t ~node (obs : Kv.observation) =
  let sh = shadow_of t node in
  match obs with
  | Kv.Applied { index; op; value } ->
      if index <> sh.sh_index + 1 then
        violation t ~node Apply_gap "apply index %d after shadow index %d"
          index sh.sh_index;
      sh.sh_index <- index;
      check_position t ~node index op;
      let key =
        match op with
        | Op.Put { key; value } ->
            Hashtbl.replace sh.sh_store key value;
            key
        | Op.Del { key } ->
            Hashtbl.remove sh.sh_store key;
            key
        | Op.Cas { key; expect; value } ->
            if holds sh.sh_store key expect then
              Hashtbl.replace sh.sh_store key value;
            key
        | Op.Sync_read _ | Op.Hello _ | Op.Chunk _ | Op.Mcas _ | Op.Mdecide _
        | Op.Skip _ | Op.Mcas_table _ ->
            ""
      in
      if not (holds sh.sh_store key value) then begin
        violation t ~node Stale_state
          "apply %d (%s): store has %s, shadow expects %s" index
          (Format.asprintf "%a" Op.pp op)
          (str_opt value)
          (str_opt (Hashtbl.find_opt sh.sh_store key));
        (* Adopt the reported value so one bug is one violation, not a
           cascade on every later touch of the key. *)
        match value with
        | Some v -> Hashtbl.replace sh.sh_store key v
        | None -> Hashtbl.remove sh.sh_store key
      end
  | Kv.Read { key; value; token; sync } ->
      if token < sh.sh_token then
        violation t ~node Non_monotonic_read
          "read of %S at token %d after token %d" key token sh.sh_token;
      sh.sh_token <- max sh.sh_token token;
      (* The shadow models exactly the applied prefix; compare only when
         the read's token matches it. *)
      if token = sh.sh_index then begin
        let expected = Hashtbl.find_opt sh.sh_store key in
        if expected <> value then
          violation t ~node Stale_read
            "%sread of %S at token %d returned %s, shadow has %s"
            (if sync then "sync " else "")
            key token (str_opt value) (str_opt expected)
      end
  | Kv.Installed { applied; entries; _ } ->
      Hashtbl.reset sh.sh_store;
      List.iter (fun (k, v) -> Hashtbl.replace sh.sh_store k v) entries;
      sh.sh_index <- applied;
      (* A snapshot install re-bases the consistency token: the donor's
         log is authoritative even when shorter than the token a frozen
         minority replica last exposed. *)
      sh.sh_token <- applied
  | Kv.Skipped { upto } -> sh.sh_index <- upto
  | Kv.Aborted -> ()
  (* Mcas life-cycle observations carry no store effect: commit writes
     arrive as ordinary [Applied] observations and flow through the
     shadow like any other op. *)
  | Kv.Voted _ | Kv.Decided _ -> ()
  | Kv.Reset ->
      Hashtbl.reset sh.sh_store;
      sh.sh_index <- 0;
      sh.sh_token <- 0;
      (* A cold reset starts the ring's log over. *)
      reset_log t.log

let check_merged t ~node ~index ~turn ~expected =
  if turn <> expected then
    violation t ~node Merge_order
      "merged position %d at turn %d, but it sorts at turn %d" index turn
      expected

let attach t kv =
  t.replicas <- t.replicas @ [ kv ];
  Kv.add_observer kv (fun obs -> observe t ~node:(Kv.node kv) obs)

let check_convergence t kvs =
  List.iter
    (fun kv ->
      let node = Kv.node kv in
      if not (Kv.synced kv) then
        violation t ~node Unsynced "replica not synced at end of run";
      (* Final state must equal the shadow byte for byte: as many
         bindings (one per key on both sides), each of the shadow's held
         by the replica. *)
      match Hashtbl.find_opt t.shadows node with
      | Some sh ->
          if
            Hashtbl.length sh.sh_store <> Kv.store_size kv
            || not (Hashtbl.fold (fun key v ok -> ok && Kv.holds kv ~key v) sh.sh_store true)
          then
            violation t ~node Divergence
              "final store (%d entries) differs from shadow (%d entries)"
              (Kv.store_size kv)
              (Hashtbl.length sh.sh_store)
      | None -> ())
    kvs;
  match kvs with
  | [] | [ _ ] -> ()
  | first :: rest ->
      let a0 = Kv.applied first and d0 = Kv.digest first in
      List.iter
        (fun kv ->
          if Kv.applied kv <> a0 || Kv.digest kv <> d0 then
            violation t ~node:(Kv.node kv) Divergence
              "replica at applied=%d digest=%Lx but node %d at applied=%d \
               digest=%Lx"
              (Kv.applied kv) (Kv.digest kv) (Kv.node first) a0 d0)
        rest

let violation_count t = t.total
let violations t = List.rev t.kept

let messages t =
  List.rev_map
    (fun v ->
      Printf.sprintf "node %d %s: %s" v.o_node (kind_label v.o_kind) v.o_detail)
    t.kept

let pp ppf t =
  if t.total = 0 then Format.fprintf ppf "oracle OK"
  else begin
    Format.fprintf ppf "%d consistency violation(s):@." t.total;
    List.iter (fun m -> Format.fprintf ppf "  %s@." m) (messages t)
  end
