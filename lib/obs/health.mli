(** Recovery/stall health watchdog. Tracks per-node membership-phase
    time-in-state and entry counters, recovery volume, crashes, and
    cluster-wide delivery progress; detects formation livelock ("K
    gather attempts without reaching operational") and delivery stalls
    ("no progress for T virtual ns while a node is stuck outside
    operational", e.g. in Recover). The feed is {!Flight}:
    a watchdog is a plain subscriber ({!as_sink}, like {!Checker} and
    {!Rotation}) that decodes the [ev_phase], [ev_flood], [ev_dedup],
    [ev_deliver], [ev_crash] and [ev_session_cut] records,
    so a crash reaches it through [Netsim.crash] alone. Any number of watchdogs may be
    subscribed at once, each counting for itself. It records nothing,
    so pinned corpus hashes never see it. Deliveries count the engine's
    [ev_deliver], once per ordered message however many local sessions
    a daemon hands it to. *)

val default_k_formation : int
(** 8: a node's gather attempts since it was last operational that
    make a formation cycle. *)

type t

val create : ?k_formation:int -> n:int -> unit -> t
(** [create ?k_formation ~n ()] watches nodes [0 .. n-1], flagging a
    formation cycle at [k_formation] attempts (default
    {!default_k_formation}). The stall period, one virtual second, is
    fixed: how long no node may complete a formation before a cycle
    counts, and how long nothing may be delivered while a node is stuck
    outside operational. *)

val as_sink : t -> Trace.sink
(** The watchdog's feed: subscribe it ({!Trace.with_sink}) before the
    cluster is built, since start-up records phases. *)

(** {2 Stall detection} *)

type stall =
  | Formation_cycle of {
      fc_node : int;
      fc_attempts : int;  (** gather entries since last operational *)
      fc_floods : int;  (** recovery messages sent since then *)
    }
  | No_progress of { np_idle_ns : int; np_stuck : (int * string) list }

val check : t -> now:int -> stall list
(** Empty when healthy. *)

(** {2 Reporting} *)

type node_report = {
  nr_node : int;
  nr_phase : string;
  nr_attempts : int;  (** gather entries since last operational *)
  nr_max_attempts : int;
      (** peak consecutive formation attempts over the node's lifetime;
          unlike [nr_attempts] this survives reaching operational, so a
          post-run assertion can bound how hard formation ever was *)
  nr_floods : int;  (** recovery messages sent since last operational *)
  nr_flood_total : int;
      (** lifetime old-ring messages re-sent as recovery data, first
          sends only: the token's retransmissions are the engine's *)
  nr_dedup_saved : int;  (** lifetime sends avoided by holder dedup *)
  nr_session_cuts : int;
      (** lifetime slow-receiver sessions this node's daemon cut at its
          inbox limit ([ev_session_cut]) *)
  nr_entries : (string * int) list;
  nr_time_in_ms : (string * float) list;
  nr_trail : string list;
}

type report = {
  r_now_ns : int;
  r_deliveries : int;
  r_stalls : stall list;
  r_nodes : node_report list;
}

val report : t -> now:int -> report
val pp_report : Format.formatter -> report -> unit
