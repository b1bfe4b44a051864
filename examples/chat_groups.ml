(* Group chat on the Spread-like daemon layer.

   Exercises the client-daemon architecture the paper credits for Spread's
   adoption: named groups, open-group sends, multi-group multicast with a
   single consistent order across groups, and group membership
   notifications delivered at the same point of the message stream at
   every client.

   Run with: dune exec examples/chat_groups.exe *)

open Aring_ring
open Aring_sim
open Aring_daemon

let n_daemons = 3

let () =
  Aring_util.Log.setup ();
  let ring = Array.init n_daemons (fun i -> i) in
  let members =
    Array.init n_daemons (fun me ->
        Member.create ~params:Params.default ~me ~initial_ring:ring ())
  in
  let daemons = Array.map (fun m -> Daemon.create ~member:m ()) members in
  let sim =
    Netsim.create ~net:Profile.gigabit
      ~tiers:(Array.make n_daemons Profile.daemon)
      ~participants:(Array.map Daemon.participant daemons)
      ()
  in
  let transcript = ref [] in
  let client who =
    {
      Daemon.on_message =
        (fun ~sender ~groups _service payload ->
          transcript :=
            Printf.sprintf "%-8s got [%s] %s: %s" who
              (String.concat "," groups) sender
              (Aring_wire.Codec.view_to_string payload)
            :: !transcript);
      on_group_view =
        (fun ~group ~members ->
          transcript :=
            Printf.sprintf "%-8s sees %s = {%s}" who group
              (String.concat ", " (Lazy.force members))
            :: !transcript);
    }
  in
  (* Three users on three different daemons. *)
  let alice = Daemon.connect daemons.(0) ~name:"alice" (client "alice") in
  let bob = Daemon.connect daemons.(1) ~name:"bob" (client "bob") in
  let carol = Daemon.connect daemons.(2) ~name:"carol" (client "carol") in
  let at = ref 0 in
  let step f =
    at := !at + 3_000_000;
    Netsim.call_at sim ~at:!at f
  in
  step (fun () -> Daemon.join daemons.(0) alice "ocaml");
  step (fun () -> Daemon.join daemons.(1) bob "ocaml");
  step (fun () -> Daemon.join daemons.(2) carol "distsys");
  step (fun () -> Daemon.join daemons.(1) bob "distsys");
  step (fun () ->
      Daemon.multicast daemons.(0) alice ~groups:[ "ocaml" ]
        (Bytes.of_string "anyone tried the new effects syntax?"));
  step (fun () ->
      (* Multi-group multicast: bob is in both groups but receives one copy,
         ordered identically with respect to both groups' traffic. *)
      Daemon.multicast daemons.(2) carol ~groups:[ "ocaml"; "distsys" ]
        (Bytes.of_string "cross-posting: ring protocols are neat"));
  step (fun () -> Daemon.leave daemons.(1) bob "ocaml");
  step (fun () ->
      Daemon.multicast daemons.(0) alice ~groups:[ "ocaml" ]
        (Bytes.of_string "bob left, it's just us now"));
  Netsim.run_until sim 100_000_000;
  Printf.printf "Chat transcript (as observed by the clients):\n";
  List.iter (fun line -> Printf.printf "  %s\n" line) (List.rev !transcript);
  (* Sanity: bob received the cross-post exactly once (multi-group dedup). *)
  let contains haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    nl = 0 || scan 0
  in
  let bob_crossposts =
    List.filter
      (fun l ->
        String.length l >= 3 && String.sub l 0 3 = "bob"
        && contains l "cross-posting")
      !transcript
  in
  Printf.printf "\nBob received the cross-post exactly once: %b\n"
    (List.length bob_crossposts = 1);
  Printf.printf "Daemon 0 stats: %d client deliveries, %d group notifications\n"
    (Daemon.stats daemons.(0)).client_deliveries
    (Daemon.stats daemons.(0)).group_notifications;
  if List.length bob_crossposts <> 1 then exit 1
