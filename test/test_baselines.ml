(* Sequencer-baseline tests: total order, gap recovery via NACK, and a
   comparative scenario run against the ring protocols. *)

open Aring_wire
open Aring_sim
open Aring_baselines

let check = Alcotest.check

let ms n = n * 1_000_000

type scluster = {
  sim : Netsim.t;
  seqs : Sequencer.t array;
  delivered : (Types.pid * string) list ref array;  (* newest first *)
}

let make_scluster ?(n = 4) ?(net = Profile.gigabit) ?(seed = 5L) () =
  let seqs = Array.init n (fun me -> Sequencer.create ~me ~n) in
  let sim =
    Netsim.create ~net
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Sequencer.participant seqs)
      ~seed ()
  in
  let delivered = Array.init n (fun _ -> ref []) in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      delivered.(at) := (d.pid, Bytes.to_string d.payload) :: !(delivered.(at)));
  { sim; seqs; delivered }

let stream c i = List.rev !(c.delivered.(i))

let test_sequencer_total_order () =
  let c = make_scluster () in
  for k = 1 to 40 do
    Netsim.submit_at c.sim ~at:(k * 50_000) ~node:(k mod 4) Types.Agreed
      (Bytes.of_string (Printf.sprintf "m%d" k))
  done;
  Netsim.run_until c.sim (ms 50);
  let s0 = stream c 0 in
  check Alcotest.int "all delivered at node 0" 40 (List.length s0);
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "node %d same order" i)
      true
      (stream c i = s0)
  done

let test_sequencer_loss_recovery () =
  let net = Profile.with_loss Profile.gigabit 0.05 in
  let c = make_scluster ~net () in
  for k = 1 to 60 do
    Netsim.submit_at c.sim ~at:(k * 50_000) ~node:(k mod 4) Types.Agreed
      (Bytes.of_string (Printf.sprintf "m%d" k))
  done;
  Netsim.run_until c.sim (ms 300);
  (* Submissions themselves can be lost sender->sequencer (the baseline has
     no end-to-end sender retry, like UDP JGroups without flow control), but
     every ORDERED message must reach every node via NACK recovery: all
     streams equal the sequencer's delivered stream. *)
  let s0 = stream c 0 in
  check Alcotest.bool "sequencer ordered most messages" true
    (List.length s0 >= 40);
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "node %d converged to sequencer stream" i)
      true
      (stream c i = s0)
  done;
  let total_nacks =
    Array.fold_left (fun acc s -> acc + Sequencer.nacks_sent s) 0 c.seqs
  in
  check Alcotest.bool "NACKs were used" true (total_nacks > 0)

let test_sequencer_scenario_runs () =
  let open Aring_harness in
  let spec =
    {
      Scenario.default_spec with
      label = "sequencer";
      tier = Profile.daemon;
      offered_mbps = 300.0;
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  let participants =
    Array.init spec.n_nodes (fun me ->
        Sequencer.participant (Sequencer.create ~me ~n:spec.n_nodes))
  in
  let r = Scenario.run_custom spec ~participants in
  check Alcotest.bool "sequencer sustains 300 Mbps" true
    (r.delivered_mbps > 290.0);
  check Alcotest.bool "latency sane" true
    (Aring_util.Stats.mean r.latency_us > 0.0
    && Aring_util.Stats.mean r.latency_us < 10_000.0)


(* -------------------------------------------------------------------- *)
(* Ring Paxos                                                            *)

type pcluster = {
  psim : Netsim.t;
  paxos : Ring_paxos.t array;
  pdelivered : (Types.pid * string) list ref array;
}

let make_pcluster ?(n = 5) ?(net = Profile.gigabit) ?(seed = 11L) () =
  let paxos = Array.init n (fun me -> Ring_paxos.create ~me ~n) in
  let psim =
    Netsim.create ~net
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Ring_paxos.participant paxos)
      ~seed ()
  in
  let pdelivered = Array.init n (fun _ -> ref []) in
  Netsim.on_deliver psim (fun ~at ~now:_ (d : Message.data) ->
      pdelivered.(at) := (d.pid, Bytes.to_string d.payload) :: !(pdelivered.(at)));
  { psim; paxos; pdelivered }

let pstream c i = List.rev !(c.pdelivered.(i))

let test_paxos_total_order () =
  let c = make_pcluster () in
  for k = 1 to 50 do
    Netsim.submit_at c.psim ~at:(k * 40_000) ~node:(k mod 5) Types.Agreed
      (Bytes.of_string (Printf.sprintf "p%d" k))
  done;
  Netsim.run_until c.psim (ms 100);
  let s0 = pstream c 0 in
  check Alcotest.int "all decided and delivered" 50 (List.length s0);
  for i = 1 to 4 do
    check Alcotest.bool (Printf.sprintf "learner %d same order" i) true
      (pstream c i = s0)
  done;
  check Alcotest.bool "coordinator decided all" true
    (Ring_paxos.decided_count c.paxos.(0) >= 50)

let test_paxos_loss_recovery () =
  let net = Profile.with_loss Profile.gigabit 0.03 in
  let c = make_pcluster ~net () in
  for k = 1 to 60 do
    Netsim.submit_at c.psim ~at:(k * 40_000) ~node:(k mod 5) Types.Agreed
      (Bytes.of_string (Printf.sprintf "p%d" k))
  done;
  Netsim.run_until c.psim (ms 500);
  (* Proposals can be lost en route to the coordinator (no sender retry,
     as in the sequencer baseline), but every DECIDED instance must reach
     every learner identically. *)
  let s0 = pstream c 0 in
  check Alcotest.bool "most instances decided" true (List.length s0 >= 40);
  for i = 1 to 4 do
    check Alcotest.bool
      (Printf.sprintf "learner %d converged" i)
      true
      (pstream c i = s0)
  done

let test_paxos_scenario_runs () =
  let open Aring_harness in
  let spec =
    {
      Scenario.default_spec with
      label = "ring-paxos";
      tier = Profile.daemon;
      offered_mbps = 300.0;
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  let participants =
    Array.init spec.n_nodes (fun me ->
        Ring_paxos.participant (Ring_paxos.create ~me ~n:spec.n_nodes))
  in
  let r = Scenario.run_custom spec ~participants in
  check Alcotest.bool "ring paxos sustains 300 Mbps" true
    (r.delivered_mbps > 290.0);
  check Alcotest.bool "latency sane" true
    (Aring_util.Stats.mean r.latency_us > 0.0
    && Aring_util.Stats.mean r.latency_us < 10_000.0)

let suite =
  [
    ("sequencer total order", `Quick, test_sequencer_total_order);
    ("sequencer loss recovery", `Quick, test_sequencer_loss_recovery);
    ("sequencer scenario", `Slow, test_sequencer_scenario_runs);
    ("ring paxos total order", `Quick, test_paxos_total_order);
    ("ring paxos loss recovery", `Quick, test_paxos_loss_recovery);
    ("ring paxos scenario", `Slow, test_paxos_scenario_runs);
  ]
