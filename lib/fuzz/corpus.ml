let entry_name ~label (s : Schedule.t) =
  Printf.sprintf "%s-seed%Lu-f%d.json" label s.Schedule.seed
    (Schedule.fault_count s)

(* Create [dir] and any of its parents that are missing. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save ~dir ~label s =
  mkdir_p dir;
  let path = Filename.concat dir (entry_name ~label s) in
  let oc = open_out path in
  output_string oc (Schedule.to_string s);
  output_char oc '\n';
  close_out oc;
  path

let load_file path =
  let ic = open_in path in
  let line = try input_line ic with End_of_file -> close_in ic; "" in
  close_in ic;
  Schedule.of_string line

let rec load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then
             List.map (fun (e, s) -> (Filename.concat f e, s)) (load_dir path)
           else if Filename.check_suffix f ".json" then [ (f, load_file path) ]
           else [])
