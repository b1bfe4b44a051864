(** Group-membership bookkeeping.

    Pure state: maps each group name to the set of its member names, a
    persistent balanced tree, so a join or leave is an O(log members)
    insert or removal and never re-sorts. A member list is built from the
    set, in sorted order, at O(members), only when one is read: {!view}
    suspends it. All mutations are applied in the ring's total order (see
    {!Daemon}), so every daemon's instance evolves identically. Member
    names follow {!Envelope.member_name} and embed the hosting daemon's
    pid, which lets a configuration change prune the members of departed
    daemons. *)

type t

val create : unit -> t

val join : t -> group:string -> member:string -> bool
(** [join t ~group ~member] adds the member; [true] when the group view
    changed, [false] if it was already present. Member names
    {!daemon_of_member} does not parse are rejected ([false]): the table
    invariant is that every stored member embeds its hosting daemon, so
    {!prune} can always decide survival explicitly. *)

val leave : t -> group:string -> member:string -> bool
(** [true] when the view changed (the last leave deletes the group). *)

val members : t -> string -> string list
(** Current members of a group, sorted (empty when unknown). *)

val view : t -> string -> string list Lazy.t
(** The group's members as they are now, sorted when forced. Taking the
    view costs O(1); forcing it costs O(members), and returns this view
    even after later joins and leaves. *)

val group_names : t -> string list

val daemon_of_member : string -> int
(** The daemon pid of a ["#session#pid"] member name, or [-1] unless the
    text after the last ['#'] is a pid exactly as {!Envelope.member_name}
    prints it: decimal digits, no sign, no leading zero, no underscore
    (so ["#a#01"], ["#a#0x1"], ["#a#-1"] and ["#a#1_0"] are all [-1]).
    Allocates nothing. *)

val valid_member_name : string -> bool
(** True when {!daemon_of_member} parses — the names {!join} accepts. *)

val prune : t -> keep:(int -> bool) -> (string * string list) list
(** [prune t ~keep] removes every member whose daemon fails [keep];
    returns the changed groups and their new member lists. Because
    {!join} rejects unparsable names, every stored member has a daemon
    to test (unparsable names would be dropped defensively). *)
