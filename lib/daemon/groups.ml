module Members = Set.Make (String)

type t = (string, Members.t) Hashtbl.t

let create () = Hashtbl.create 16

let find t group = Option.value ~default:Members.empty (Hashtbl.find_opt t group)

let members t group = Members.elements (find t group)

let group_names t = Hashtbl.fold (fun g _ acc -> g :: acc) t []

let set t group ms =
  if Members.is_empty ms then Hashtbl.remove t group else Hashtbl.replace t group ms

let daemon_of_member name =
  match String.rindex_opt name '#' with
  | None -> None
  | Some i -> int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))

let valid_member_name name = Option.is_some (daemon_of_member name)

(* Malformed names are rejected at the door rather than silently vanishing
   in [prune]: the table invariant is that every stored member name parses
   with [daemon_of_member], so a configuration change can always decide
   whether the member's hosting daemon survived. *)
let join t ~group ~member =
  if not (valid_member_name member) then None
  else
    let current = find t group in
    if Members.mem member current then None
    else begin
      let updated = Members.add member current in
      set t group updated;
      Some (Members.elements updated)
    end

let leave t ~group ~member =
  let current = find t group in
  if not (Members.mem member current) then None
  else begin
    let updated = Members.remove member current in
    set t group updated;
    Some (Members.elements updated)
  end

let prune t ~keep =
  let changed = ref [] in
  let names = group_names t in
  List.iter
    (fun group ->
      let current = find t group in
      let kept =
        Members.filter
          (fun m ->
            (* [join] rejects unparsable names, so the [None] branch is
               unreachable on a well-formed table; kept as defense in
               depth (an unparsable member could never be pruned by
               daemon death, so dropping it here is the safe choice). *)
            match daemon_of_member m with Some d -> keep d | None -> false)
          current
      in
      if Members.cardinal kept <> Members.cardinal current then begin
        set t group kept;
        changed := (group, Members.elements kept) :: !changed
      end)
    names;
  !changed
