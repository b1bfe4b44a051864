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
   and how many replicas applied it. Positions every replica has passed
   are pruned once the table doubles, so it holds about the spread
   between the fastest and the slowest replica.
   (Keeping a hash of each op instead would hold no value alive, but
   hashing every apply cost about an eighth of uniform_4r's set-up
   CPU.) *)
type entry = { mutable e_op : Op.t; mutable e_count : int }

type log = {
  ops : (int, entry) Hashtbl.t;
  mutable pruned : int;  (* positions at or below it are gone *)
  mutable prune_at : int;
}

let min_prune = 256

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
    log = { ops = Hashtbl.create 64; pruned = 0; prune_at = min_prune };
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

let prune log shadows =
  let low = Hashtbl.fold (fun _ sh low -> min low sh.sh_index) shadows max_int in
  for p = log.pruned + 1 to low do
    Hashtbl.remove log.ops p
  done;
  log.pruned <- max log.pruned low;
  log.prune_at <- max min_prune (2 * Hashtbl.length log.ops)

(* A replica that applies position [index] applies the op a majority of
   the ring's replicas applied there. An op fewer have applied can still
   lose the position: an agreed op delivered by a member cut off from
   its view before the rest received it (ROADMAP, Known bugs). *)
let check_position t ~node index op =
  let log = t.log in
  match Hashtbl.find log.ops index with
  | e when e.e_op = op -> e.e_count <- e.e_count + 1
  | e ->
      if 2 * e.e_count > List.length t.replicas then
        violation t ~node Log_divergence
          "position %d: applied %s, but %d replicas applied %s there" index
          (Format.asprintf "%a" Op.pp op)
          e.e_count
          (Format.asprintf "%a" Op.pp e.e_op)
      else begin
        e.e_op <- op;
        e.e_count <- 1
      end
  | exception Not_found ->
      if index > log.pruned then begin
        Hashtbl.replace log.ops index { e_op = op; e_count = 1 };
        if Hashtbl.length log.ops >= log.prune_at then prune log t.shadows
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
      Hashtbl.reset t.log.ops;
      t.log.pruned <- 0

let check_merged t ~node ~index ~turn ~expected =
  if turn <> expected then
    violation t ~node Merge_order
      "merged position %d at turn %d, but it sorts at turn %d" index turn
      expected

let attach t kv =
  t.replicas <- t.replicas @ [ kv ];
  Kv.add_observer kv (fun obs -> observe t ~node:(Kv.node kv) obs)

let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let check_convergence t kvs =
  List.iter
    (fun kv ->
      let node = Kv.node kv in
      if not (Kv.synced kv) then
        violation t ~node Unsynced "replica not synced at end of run";
      (* Final state must equal the shadow byte for byte. *)
      match Hashtbl.find_opt t.shadows node with
      | Some sh ->
          if sorted_entries sh.sh_store <> Kv.entries kv then
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
