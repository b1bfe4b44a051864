open Aring_wire

(* JSONL serialization of trace events: one JSON object per line, with a
   stable "ev" discriminator. The format round-trips through Json so the
   trace-dump tool can re-read files written by any run. *)

let ring_json (r : Types.ring_id) = Json.List [ Json.Int r.rep; Json.Int r.ring_seq ]

let ring_of_json j =
  match j with
  | Json.List [ a; b ] -> (
      match (Json.to_int a, Json.to_int b) with
      | Some rep, Some ring_seq -> ({ rep; ring_seq } : Types.ring_id)
      | _ -> raise (Json.Parse_error "bad ring id"))
  | _ -> raise (Json.Parse_error "bad ring id")

let kind_fields (k : Trace.kind) : (string * Json.t) list =
  match k with
  | Token_recv { ring; token_id; round; seq; aru; local_aru; safe_line } ->
      [
        ("ring", ring_json ring);
        ("token_id", Json.Int token_id);
        ("round", Json.Int round);
        ("seq", Json.Int seq);
        ("aru", Json.Int aru);
        ("local_aru", Json.Int local_aru);
        ("safe_line", Json.Int safe_line);
      ]
  | Token_send { ring; token_id; round; seq; aru; fcc; rtr; local_aru; safe_line }
    ->
      [
        ("ring", ring_json ring);
        ("token_id", Json.Int token_id);
        ("round", Json.Int round);
        ("seq", Json.Int seq);
        ("aru", Json.Int aru);
        ("fcc", Json.Int fcc);
        ("rtr", Json.Int rtr);
        ("local_aru", Json.Int local_aru);
        ("safe_line", Json.Int safe_line);
      ]
  | Token_retransmit { token_id; attempt } ->
      [ ("token_id", Json.Int token_id); ("attempt", Json.Int attempt) ]
  | Token_lost -> []
  | Data_send { ring; seq; size; post_token; retrans } ->
      [
        ("ring", ring_json ring);
        ("seq", Json.Int seq);
        ("size", Json.Int size);
        ("post_token", Json.Bool post_token);
        ("retrans", Json.Bool retrans);
      ]
  | Deliver { ring; seq; sender; service } ->
      [
        ("ring", ring_json ring);
        ("seq", Json.Int seq);
        ("sender", Json.Int sender);
        ("service", Json.String service);
      ]
  | View_install { ring; members; transitional } ->
      [
        ("ring", ring_json ring);
        ("members", Json.List (List.map (fun p -> Json.Int p) members));
        ("transitional", Json.Bool transitional);
      ]
  | Phase { phase } -> [ ("phase", Json.String phase) ]
  | Crash -> []
  | Drop { reason; size } ->
      [ ("reason", Json.String reason); ("size", Json.Int size) ]
  | App_xfer { view; donor; phase; applied; entries } ->
      [
        ("view", ring_json view);
        ("donor", Json.Int donor);
        ("phase", Json.String phase);
        ("applied", Json.Int applied);
        ("entries", Json.Int entries);
      ]

let to_json (ev : Trace.event) =
  Json.Obj
    (("ts", Json.Int ev.t_ns)
    :: ("node", Json.Int ev.node)
    :: ("ev", Json.String (Trace.kind_name ev.kind))
    :: kind_fields ev.kind)

let req name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Json.Parse_error (Printf.sprintf "missing field %S" name))

let req_ring name j =
  match Json.member name j with
  | Some r -> ring_of_json r
  | None -> raise (Json.Parse_error (Printf.sprintf "missing field %S" name))

let kind_of_json name j : Trace.kind =
  match name with
  | "token_recv" ->
      Token_recv
        {
          ring = req_ring "ring" j;
          token_id = req "token_id" Json.to_int j;
          round = req "round" Json.to_int j;
          seq = req "seq" Json.to_int j;
          aru = req "aru" Json.to_int j;
          local_aru = req "local_aru" Json.to_int j;
          safe_line = req "safe_line" Json.to_int j;
        }
  | "token_send" ->
      Token_send
        {
          ring = req_ring "ring" j;
          token_id = req "token_id" Json.to_int j;
          round = req "round" Json.to_int j;
          seq = req "seq" Json.to_int j;
          aru = req "aru" Json.to_int j;
          fcc = req "fcc" Json.to_int j;
          rtr = req "rtr" Json.to_int j;
          local_aru = req "local_aru" Json.to_int j;
          safe_line = req "safe_line" Json.to_int j;
        }
  | "token_retransmit" ->
      Token_retransmit
        {
          token_id = req "token_id" Json.to_int j;
          attempt = req "attempt" Json.to_int j;
        }
  | "token_lost" -> Token_lost
  | "data_send" ->
      Data_send
        {
          ring = req_ring "ring" j;
          seq = req "seq" Json.to_int j;
          size = req "size" Json.to_int j;
          post_token = req "post_token" Json.to_bool j;
          retrans = req "retrans" Json.to_bool j;
        }
  | "deliver" ->
      Deliver
        {
          ring = req_ring "ring" j;
          seq = req "seq" Json.to_int j;
          sender = req "sender" Json.to_int j;
          service = req "service" Json.to_str j;
        }
  | "view_install" ->
      View_install
        {
          ring = req_ring "ring" j;
          members =
            req "members" Json.to_list j
            |> List.map (fun m ->
                   match Json.to_int m with
                   | Some i -> i
                   | None -> raise (Json.Parse_error "bad member pid"));
          transitional = req "transitional" Json.to_bool j;
        }
  | "phase" -> Phase { phase = req "phase" Json.to_str j }
  | "crash" -> Crash
  | "drop" ->
      Drop { reason = req "reason" Json.to_str j; size = req "size" Json.to_int j }
  | "app_xfer" ->
      App_xfer
        {
          view = req_ring "view" j;
          donor = req "donor" Json.to_int j;
          phase = req "phase" Json.to_str j;
          applied = req "applied" Json.to_int j;
          entries = req "entries" Json.to_int j;
        }
  | other -> raise (Json.Parse_error (Printf.sprintf "unknown event %S" other))

let of_json j : Trace.event =
  {
    t_ns = req "ts" Json.to_int j;
    node = req "node" Json.to_int j;
    kind = kind_of_json (req "ev" Json.to_str j) j;
  }

let to_line ev = Json.to_string (to_json ev)
let of_line line = of_json (Json.of_string line)

(* Streaming JSONL writer sink. *)
let jsonl_sink oc =
  {
    Trace.emit =
      (fun ev ->
        output_string oc (to_line ev);
        output_char oc '\n');
    flush = (fun () -> flush oc);
  }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> loop (lineno + 1) acc
        | line -> (
            match of_line line with
            | ev -> loop (lineno + 1) (ev :: acc)
            | exception Json.Parse_error msg ->
                raise
                  (Json.Parse_error (Printf.sprintf "line %d: %s" lineno msg)))
      in
      loop 1 [])
