(** Group-membership bookkeeping.

    Pure state: maps each group name to the set of its member names, a
    balanced tree, so a join or leave is an O(log members) insert or
    removal and never re-sorts. The member lists returned below are built
    from the set, in sorted order, at O(members) each. All mutations are
    applied in the ring's total order (see {!Daemon}), so every daemon's
    instance evolves identically. Member names follow
    {!Envelope.member_name} and embed the hosting daemon's pid, which lets
    a configuration change prune the members of departed daemons. *)

type t

val create : unit -> t

val join : t -> group:string -> member:string -> string list option
(** [join t ~group ~member] adds the member; [Some members'] when the group
    view changed, [None] if it was already present. Member names that do
    not parse with {!daemon_of_member} are rejected ([None]): the table
    invariant is that every stored member embeds its hosting daemon, so
    {!prune} can always decide survival explicitly. *)

val leave : t -> group:string -> member:string -> string list option
(** [Some members'] when the view changed ([] deletes the group). *)

val members : t -> string -> string list
(** Current members of a group, sorted (empty when unknown). *)

val group_names : t -> string list

val daemon_of_member : string -> int option
(** Parse the daemon pid out of a ["#session#pid"] member name. *)

val valid_member_name : string -> bool
(** True when {!daemon_of_member} parses — the names {!join} accepts. *)

val prune : t -> keep:(int -> bool) -> (string * string list) list
(** [prune t ~keep] removes every member whose daemon fails [keep];
    returns the changed groups and their new member lists. Because
    {!join} rejects unparsable names, every stored member has a daemon
    to test (unparsable names would be dropped defensively). *)
