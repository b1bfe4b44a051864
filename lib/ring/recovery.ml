open Aring_wire

(* ------------------------------------------------------------------ *)
(* Designated-holder election                                          *)

(* Sorting the filtered pid lists descending keeps the election a pure
   function of the (unordered) member-info set: any permutation of the
   commit token's slots yields the same candidate order. *)
let holders ~infos ~old_ring seq =
  let survivors =
    List.filter
      (fun (mi : Message.member_info) ->
        Types.ring_id_equal mi.m_old_ring old_ring)
      infos
  in
  let sure =
    List.filter_map
      (fun (mi : Message.member_info) ->
        if mi.m_aru >= seq then Some mi.m_pid else None)
      survivors
    |> List.sort_uniq compare |> List.rev
  in
  let maybe =
    List.filter_map
      (fun (mi : Message.member_info) ->
        if mi.m_aru < seq && mi.m_high_seq >= seq then Some mi.m_pid else None)
      survivors
    |> List.sort_uniq compare |> List.rev
    |> List.filter (fun p -> not (List.mem p sure))
  in
  sure @ maybe

let designated ~infos ~old_ring seq =
  match holders ~infos ~old_ring seq with [] -> None | p :: _ -> Some p
