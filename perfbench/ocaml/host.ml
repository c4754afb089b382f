(* Host fingerprint, process memory and scratch directories. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
        in
        go [])

let field_value line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let cpu_model () =
  match
    List.find_opt
      (fun l -> String.length l >= 10 && String.sub l 0 10 = "model name")
      (read_lines "/proc/cpuinfo")
  with
  | Some l -> field_value l
  | None -> "unknown"

(* Peak resident set of a process, from the kernel's high-water mark. *)
let vm_hwm_mb pid =
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  with
  | Some l -> Scanf.sscanf (field_value l) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM for process " ^ pid)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let fingerprint ~commit =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", json_string (cpu_model ()));
    ("ocaml_version", json_string Sys.ocaml_version);
    ("commit", json_string commit);
  ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh directory under [root], removed at exit.  Relative paths are
   kept relative so socket paths stay short whatever the checkout's
   location. *)
let scratch_dirs = ref []

let fresh_dir ~root tag =
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) (List.length !scratch_dirs)) in
  rm_rf dir;
  mkdir_p dir;
  scratch_dirs := dir :: !scratch_dirs;
  dir

let cleanup_dirs () =
  List.iter
    (fun dir ->
      rm_rf dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    !scratch_dirs;
  scratch_dirs := []
