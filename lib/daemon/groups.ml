module Members = Set.Make (String)

type t = (string, Members.t) Hashtbl.t

let create () = Hashtbl.create 16

let find t group =
  match Hashtbl.find t group with
  | ms -> ms
  | exception Not_found -> Members.empty

let members t group = Members.elements (find t group)

(* The set is persistent: a later join or leave builds a new one, so the
   suspension keeps the view it was taken from. *)
let view t group =
  let ms = find t group in
  lazy (Members.elements ms)

let group_names t = Hashtbl.fold (fun g _ acc -> g :: acc) t []

let set t group ms =
  if Members.is_empty ms then Hashtbl.remove t group else Hashtbl.replace t group ms

(* Digits of a non-negative int as [string_of_int] prints them, from [i]
   to the end; -1 on any other byte or on overflow. *)
let rec digits name i acc =
  if i = String.length name then acc
  else
    let c = name.[i] in
    if c < '0' || c > '9' then -1
    else
      let v = Char.code c - Char.code '0' in
      if acc > (max_int - v) / 10 then -1 else digits name (i + 1) ((acc * 10) + v)

let daemon_of_member name =
  match String.rindex name '#' with
  | exception Not_found -> -1
  | i ->
      let n = String.length name - i - 1 in
      (* No sign, no leading zero: one spelling per pid. *)
      if n = 0 || (n > 1 && name.[i + 1] = '0') then -1 else digits name (i + 1) 0

let valid_member_name name = daemon_of_member name >= 0

(* Malformed names are rejected at the door rather than silently vanishing
   in [prune]: the table invariant is that every stored member name parses
   with [daemon_of_member], so a configuration change can always decide
   whether the member's hosting daemon survived. *)
let join t ~group ~member =
  let current = find t group in
  if (not (valid_member_name member)) || Members.mem member current then false
  else begin
    set t group (Members.add member current);
    true
  end

let leave t ~group ~member =
  let current = find t group in
  if not (Members.mem member current) then false
  else begin
    set t group (Members.remove member current);
    true
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
            (* [join] rejects unparsable names, so the negative branch is
               unreachable on a well-formed table; kept as defense in
               depth (an unparsable member could never be pruned by
               daemon death, so dropping it here is the safe choice). *)
            let d = daemon_of_member m in
            d >= 0 && keep d)
          current
      in
      if Members.cardinal kept <> Members.cardinal current then begin
        set t group kept;
        changed := (group, Members.elements kept) :: !changed
      end)
    names;
  !changed
