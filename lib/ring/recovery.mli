(** Recovery's designated-holder election.

    A pure function of data every survivor already shares — the commit
    token's member-info slots — so every survivor computes the same
    answer from its local copy, with no extra agreement round. The member
    uses it to deduplicate recovery: of the survivors holding an old-ring
    message that some survivor may miss, only the designated one re-sends
    it on the new ring, where the token's window, fcc and rtr pace and
    repair it like any other message. *)

open Aring_wire

val holders :
  infos:Message.member_info list ->
  old_ring:Types.ring_id ->
  Types.seqno ->
  Types.pid list
(** The deterministic candidate list for sequence number [seq] among the
    survivors of [old_ring] advertised in [infos]: first every survivor
    whose [m_aru >= seq] (guaranteed to have received it), highest pid
    first, then every survivor whose [m_high_seq >= seq] (may hold it),
    highest pid first. Duplicate-free; empty when no survivor can hold
    [seq]. Survivors of other old rings are ignored. *)

val designated :
  infos:Message.member_info list ->
  old_ring:Types.ring_id ->
  Types.seqno ->
  Types.pid option
(** The head of {!holders}: the single survivor expected to re-send
    [seq]. Identical at every survivor that shares the commit token's
    member info. It is sure to hold [seq] whenever some survivor's
    [m_aru >= seq]; above every survivor's aru no holder is sure, and
    the member has each survivor holding [seq] re-send it. *)
