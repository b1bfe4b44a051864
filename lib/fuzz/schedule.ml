module Prng = Aring_util.Prng
module Json = Aring_obs.Json
open Aring_sim

(* [ring] on a fault scopes it to one ordering ring of a multi-ring run
   (-1 = all rings, the only value single-ring schedules ever carry).
   Crashes are always physical: a crashed node dies in every ring. *)
type fault =
  | Crash of { at_ns : int; node : int }
  | Partition of { at_ns : int; until_ns : int; island : int list; ring : int }
  | Loss_burst of { at_ns : int; until_ns : int; permille : int }
  | Token_blackout of { at_ns : int; until_ns : int; ring : int }

type app = Bare | Kv

let app_of_string = function
  | "bare" -> Ok Bare
  | "kv" -> Ok Kv
  | s -> Error (Printf.sprintf "unknown app %S (bare or kv)" s)

type config = {
  app : app;
  n_nodes : int;
  rings : int;
  tier_ids : int list;
  ten_gig : bool;
  base_loss_permille : int;
  small_switch_buffer : bool;
  accelerated_window : int;
  personal_window : int;
  aggressive : bool;
  max_seq_gap : int;
  payload : int;
  submit_gap_ns : int;
  safe_permille : int;
  horizon_ns : int;
  drain_ns : int;
}

type t = { seed : int64; config : config; faults : fault list }

let fault_count t = List.length t.faults

let fault_window = function
  | Crash { at_ns; _ } -> (at_ns, at_ns)
  | Partition { at_ns; until_ns; _ }
  | Loss_burst { at_ns; until_ns; _ }
  | Token_blackout { at_ns; until_ns; _ } ->
      (at_ns, until_ns)

let ms n = n * 1_000_000

(* Failure-detection timeouts are the fast profile ({!Params.snappy}) so
   gather/commit/recover cycles complete in a few hundred simulated
   milliseconds; the schedule varies the dimensions the paper's
   correctness argument actually depends on. *)
let params (c : config) : Aring_ring.Params.t =
  {
    Aring_ring.Params.snappy with
    personal_window = c.personal_window;
    accelerated_window = c.accelerated_window;
    max_seq_gap = c.max_seq_gap;
    priority_method =
      (if c.aggressive then Aring_ring.Params.Aggressive
       else Aring_ring.Params.Conservative);
  }

let tier = function
  | 0 -> Profile.library
  | 1 -> Profile.daemon
  | _ -> Profile.spread

let net (c : config) =
  let base = if c.ten_gig then Profile.ten_gigabit else Profile.gigabit in
  let base =
    if c.base_loss_permille > 0 then
      Profile.with_loss base (float_of_int c.base_loss_permille /. 1000.0)
    else base
  in
  if c.small_switch_buffer then
    { base with Profile.switch_port_buffer = 32 * 1024 }
  else base

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let gen_island prng n =
  (* A nonempty proper subset of the nodes. *)
  let size = 1 + Prng.int prng (n - 1) in
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  List.sort compare (Array.to_list (Array.sub perm 0 size))

let gen_window prng ~horizon ~max_len =
  let at_ns = Prng.int prng horizon in
  let len = 1 + Prng.int prng (min max_len (horizon - at_ns)) in
  (at_ns, at_ns + len)

(* Ring scope is drawn *after* each fault's own draws and only when the
   run is multi-ring, so single-ring schedules consume the exact
   historical PRNG stream and every pinned corpus schedule regenerates
   bit-identically. *)
let gen_ring prng ~rings =
  if rings <= 1 then -1
  else if Prng.int prng 3 = 0 then -1
  else Prng.int prng rings

let gen_fault prng ~n ~rings ~horizon =
  match Prng.int prng 4 with
  | 0 -> Crash { at_ns = Prng.int prng horizon; node = Prng.int prng n }
  | 1 ->
      let at_ns, until_ns = gen_window prng ~horizon ~max_len:(ms 120) in
      let island = gen_island prng n in
      Partition { at_ns; until_ns; island; ring = gen_ring prng ~rings }
  | 2 ->
      let at_ns, until_ns = gen_window prng ~horizon ~max_len:(ms 80) in
      Loss_burst { at_ns; until_ns; permille = 20 + Prng.int prng 280 }
  | _ ->
      let at_ns, until_ns = gen_window prng ~horizon ~max_len:(ms 60) in
      Token_blackout { at_ns; until_ns; ring = gen_ring prng ~rings }

let multi_ring_bare = "schedule: a multi-ring schedule hosts the kv app"

let generate ?(app = Bare) ?(max_nodes = 8) ?(rings = 1) ~seed () =
  if rings > 1 && app = Bare then invalid_arg multi_ring_bare;
  let prng = Prng.create ~seed in
  (* The default bound reproduces the historical draw stream exactly:
     [max_nodes = 8] makes this [2 + Prng.int prng 7], so every pinned
     corpus schedule regenerates unchanged. Larger bounds (the CI runs a
     32-node pass) stress recovery pacing at scale. *)
  let n_nodes = 2 + Prng.int prng (max 1 (max_nodes - 1)) in
  let tier_ids = List.init n_nodes (fun _ -> Prng.int prng 3) in
  let ten_gig = Prng.bool prng in
  let base_loss_permille =
    if Prng.int prng 2 = 0 then 0 else 1 + Prng.int prng 30
  in
  (* Sustained loss must scale down with ring size or the liveness
     oracle demands the statistically impossible: a token rotation is
     [n_nodes] hops, so [n * p] is the expected token kills per
     rotation, and past ~1/4 the full ring falls apart faster than a
     formation plus one settled rotation can complete (no total-order
     protocol converges under that). Cap n*p at 1/4. The prng draw
     stream is untouched, and the cap is inert for the default 8-node
     bound (250/8 = 31 >= the drawn max of 30), so every pinned corpus
     schedule regenerates bit-identically. Bounded Loss_burst windows
     still push far past this cap transiently. *)
  let base_loss_permille = min base_loss_permille (250 / n_nodes) in
  let small_switch_buffer = Prng.int prng 4 = 0 in
  let accelerated_window = Prng.int prng 21 in
  let personal_window = max accelerated_window (10 + Prng.int prng 51) in
  let aggressive = Prng.bool prng in
  (* Default global_window is 300; keep max_seq_gap >= that, with the low
     end deliberately tight (sequencing bumps into the stability line). *)
  let max_seq_gap = 300 + Prng.int prng 1701 in
  let payload = 16 + Prng.int prng 1335 in
  let submit_gap_ns = 200_000 + Prng.int prng 1_800_001 in
  let safe_permille = if Prng.int prng 3 = 0 then Prng.int prng 301 else 0 in
  let horizon_ns = ms (80 + Prng.int prng 171) in
  let n_faults = Prng.int prng 7 in
  let faults =
    List.init n_faults (fun _ ->
        gen_fault prng ~n:n_nodes ~rings ~horizon:horizon_ns)
  in
  let faults =
    List.sort (fun a b -> compare (fault_window a) (fault_window b)) faults
  in
  {
    seed;
    config =
      {
        app;
        n_nodes;
        rings;
        tier_ids;
        ten_gig;
        base_loss_permille;
        small_switch_buffer;
        accelerated_window;
        personal_window;
        aggressive;
        max_seq_gap;
        payload;
        submit_gap_ns;
        safe_permille;
        horizon_ns;
        (* Convergence time grows superlinearly with ring size: the
           final merge needs a loss-free window of O(n) hops, every
           failed attempt burns a ~100 ms consensus timeout, and wider
           rings churn more under the same per-hop loss (a 29-node
           no_merge shrink was observed mid-commit of the full merge
           when a flat 2 s drain expired, converging 1 s later). The
           flat 2 s encoded the historical 8-node cap; scale it with
           the draw. n <= 8 keeps exactly 2 s, so pinned corpus
           schedules regenerate bit-identically. *)
        drain_ns = ms 2_000 * max 1 ((n_nodes + 7) / 8);
      };
    faults;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let fault_to_json = function
  | Crash { at_ns; node } ->
      Json.Obj [ ("fault", Json.String "crash"); ("at", Json.Int at_ns); ("node", Json.Int node) ]
  | Partition { at_ns; until_ns; island; ring } ->
      Json.Obj
        ([
           ("fault", Json.String "partition");
           ("at", Json.Int at_ns);
           ("until", Json.Int until_ns);
           ("island", Json.List (List.map (fun i -> Json.Int i) island));
         ]
        @ if ring >= 0 then [ ("ring", Json.Int ring) ] else [])
  | Loss_burst { at_ns; until_ns; permille } ->
      Json.Obj
        [
          ("fault", Json.String "loss_burst");
          ("at", Json.Int at_ns);
          ("until", Json.Int until_ns);
          ("permille", Json.Int permille);
        ]
  | Token_blackout { at_ns; until_ns; ring } ->
      Json.Obj
        ([
           ("fault", Json.String "token_blackout");
           ("at", Json.Int at_ns);
           ("until", Json.Int until_ns);
         ]
        @ if ring >= 0 then [ ("ring", Json.Int ring) ] else [])

let malformed what = raise (Json.Parse_error ("schedule: missing " ^ what))

let get_int j key =
  match Option.bind (Json.member key j) Json.to_int with
  | Some v -> v
  | None -> malformed key

let get_bool j key =
  match Option.bind (Json.member key j) Json.to_bool with
  | Some v -> v
  | None -> malformed key

let get_str j key =
  match Option.bind (Json.member key j) Json.to_str with
  | Some v -> v
  | None -> malformed key

let get_int_default j key ~default =
  match Option.bind (Json.member key j) Json.to_int with
  | Some v -> v
  | None -> default

let get_int_list j key =
  match Option.bind (Json.member key j) Json.to_list with
  | Some l ->
      List.map
        (fun v -> match Json.to_int v with Some i -> i | None -> malformed key)
        l
  | None -> malformed key

let fault_of_json j =
  match get_str j "fault" with
  | "crash" -> Crash { at_ns = get_int j "at"; node = get_int j "node" }
  | "partition" ->
      Partition
        {
          at_ns = get_int j "at";
          until_ns = get_int j "until";
          island = get_int_list j "island";
          ring = get_int_default j "ring" ~default:(-1);
        }
  | "loss_burst" ->
      Loss_burst
        {
          at_ns = get_int j "at";
          until_ns = get_int j "until";
          permille = get_int j "permille";
        }
  | "token_blackout" ->
      Token_blackout
        {
          at_ns = get_int j "at";
          until_ns = get_int j "until";
          ring = get_int_default j "ring" ~default:(-1);
        }
  | k -> raise (Json.Parse_error ("schedule: unknown fault kind " ^ k))

let to_json t =
  let c = t.config in
  (* Defaults are omitted: bare one-ring corpus files stay as they are. *)
  let app = if c.app = Kv then [ ("app", Json.String "kv") ] else [] in
  let rings = if c.rings <> 1 then [ ("rings", Json.Int c.rings) ] else [] in
  Json.Obj
    ((("seed", Json.String (Int64.to_string t.seed)) :: app)
    @ (("n_nodes", Json.Int c.n_nodes) :: rings)
    @ [
      ("tier_ids", Json.List (List.map (fun i -> Json.Int i) c.tier_ids));
      ("ten_gig", Json.Bool c.ten_gig);
      ("base_loss_permille", Json.Int c.base_loss_permille);
      ("small_switch_buffer", Json.Bool c.small_switch_buffer);
      ("accelerated_window", Json.Int c.accelerated_window);
      ("personal_window", Json.Int c.personal_window);
      ("aggressive", Json.Bool c.aggressive);
      ("max_seq_gap", Json.Int c.max_seq_gap);
      ("payload", Json.Int c.payload);
      ("submit_gap_ns", Json.Int c.submit_gap_ns);
      ("safe_permille", Json.Int c.safe_permille);
      ("horizon_ns", Json.Int c.horizon_ns);
      ("drain_ns", Json.Int c.drain_ns);
      ("faults", Json.List (List.map fault_to_json t.faults));
    ])

let of_json j =
  let faults =
    match Option.bind (Json.member "faults" j) Json.to_list with
    | Some l -> List.map fault_of_json l
    | None -> malformed "faults"
  in
  let app =
    if Json.member "app" j = None then Bare
    else
      match app_of_string (get_str j "app") with
      | Ok app -> app
      | Error e -> raise (Json.Parse_error ("schedule: " ^ e))
  in
  let rings = get_int_default j "rings" ~default:1 in
  if rings > 1 && app = Bare then raise (Json.Parse_error multi_ring_bare);
  (* Every run is judged for liveness. Older files carry
     ["liveness": true], which says just that; any other value asks for
     a run that no longer exists. *)
  (match Json.member "liveness" j with
  | None | Some (Json.Bool true) -> ()
  | Some _ -> raise (Json.Parse_error "schedule: liveness can only be true"));
  {
    seed = Int64.of_string (get_str j "seed");
    config =
      {
        app;
        n_nodes = get_int j "n_nodes";
        rings;
        tier_ids = get_int_list j "tier_ids";
        ten_gig = get_bool j "ten_gig";
        base_loss_permille = get_int j "base_loss_permille";
        small_switch_buffer = get_bool j "small_switch_buffer";
        accelerated_window = get_int j "accelerated_window";
        personal_window = get_int j "personal_window";
        aggressive = get_bool j "aggressive";
        max_seq_gap = get_int j "max_seq_gap";
        payload = get_int j "payload";
        submit_gap_ns = get_int j "submit_gap_ns";
        safe_permille = get_int j "safe_permille";
        horizon_ns = get_int j "horizon_ns";
        drain_ns = get_int j "drain_ns";
      };
    faults;
  }

let to_string t = Json.to_string (to_json t)
let of_string s = of_json (Json.of_string s)

let pp_ring ppf ring =
  if ring >= 0 then Format.fprintf ppf " ring=%d" ring

let pp_fault ppf = function
  | Crash { at_ns; node } ->
      Format.fprintf ppf "crash(node=%d at=%dus)" node (at_ns / 1000)
  | Partition { at_ns; until_ns; island; ring } ->
      Format.fprintf ppf "partition({%s} %d-%dus%a)"
        (String.concat "," (List.map string_of_int island))
        (at_ns / 1000) (until_ns / 1000) pp_ring ring
  | Loss_burst { at_ns; until_ns; permille } ->
      Format.fprintf ppf "loss(%d%%o %d-%dus)" permille (at_ns / 1000)
        (until_ns / 1000)
  | Token_blackout { at_ns; until_ns; ring } ->
      Format.fprintf ppf "token_blackout(%d-%dus%a)" (at_ns / 1000)
        (until_ns / 1000) pp_ring ring

let pp ppf t =
  let c = t.config in
  Format.fprintf ppf
    "schedule(seed=%Ld app=%s n=%d rings=%d net=%s loss=%d%%o aw=%d pw=%d \
     gap=%d %s payload=%d horizon=%dms faults=[%a])"
    t.seed
    (if c.app = Kv then "kv" else "bare")
    c.n_nodes c.rings
    (if c.ten_gig then "10g" else "1g")
    c.base_loss_permille c.accelerated_window c.personal_window c.max_seq_gap
    (if c.aggressive then "aggr" else "cons")
    c.payload
    (c.horizon_ns / ms 1)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       pp_fault)
    t.faults
