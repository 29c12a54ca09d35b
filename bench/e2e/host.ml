(* Files, environment and process facts the harness needs.  Everything
   it writes lives under _build/bench/ of the working directory. *)

let root = Filename.concat "_build" "bench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Tile-cache directories of this process; removed at exit whatever
   happens to the run. *)
let tile_root () =
  Filename.concat (Filename.concat root "tiles")
    (string_of_int (Unix.getpid ()))

let () = at_exit (fun () -> rm_rf (tile_root ()))

let fresh_dir name =
  let dir = Filename.concat (tile_root ()) name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* Variables that change what is measured: a shared tile cache, a
   resized pool, injected faults. *)
let guarded_variables = [ "SNOISE_CACHE_DIR"; "SNOISE_JOBS"; "SNOISE_FAULT" ]

let guard_environment () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) guarded_variables with
  | [] -> ()
  | set ->
    Printf.eprintf
      "bench/e2e: unset %s before benchmarking: each changes what is \
       measured\n%!"
      (String.concat ", " set);
    exit 2

(* First line a shell command prints ("" when it prints nothing), or
   [None] when it fails. *)
let command_output cmd =
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some line | _ -> None

let write_file path text =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc text;
  close_out oc;
  Sys.rename tmp path

let read_file path = In_channel.with_open_bin path In_channel.input_all
