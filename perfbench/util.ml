(* Clocks, order statistics, /proc readers, child processes and the
   result line shared by the workloads. *)

let now_s () = Gpp_obs.Obs.now_us () /. 1e6

(* User + system CPU of this process (getrusage, microsecond grain). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile; [bp] is the percentile in basis points
   (p90 = 9000), so ranks are exact integers. *)
let rank ~n bp = max 1 (((bp * n) + 9999) / 10000)

let percentile sorted bp =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (rank ~n bp - 1))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let bp_label bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%g" (float_of_int bp /. 100.)

(* The highest percentile of the p90/p99/p99.9/p99.99 ladder with at
   least ten samples beyond it; the maximum when no rung has. *)
let tail sorted =
  let n = Array.length sorted in
  let rec pick = function
    | [] -> (sorted.(n - 1), "max")
    | bp :: rest -> if n - rank ~n bp >= 10 then (percentile sorted bp, bp_label bp) else pick rest
  in
  if n = 0 then (nan, "none") else pick [ 9999; 9990; 9900; 9000 ]

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The paper's headline figure over a Batch TSV: the mean over ok cells
   of |with_transfer - measured| / measured speedup, in percent. *)
let speedup_error_pct tsv =
  let errs =
    List.filter_map
      (fun line ->
        match String.split_on_char '\t' line with
        | _ :: _ :: _ :: "ok" :: measured :: _ :: _ :: with_transfer :: _ ->
            let m = float_of_string measured and w = float_of_string with_transfer in
            Some (Float.abs (w -. m) /. m)
        | _ -> None)
      (String.split_on_char '\n' tsv)
  in
  100. *. List.fold_left ( +. ) 0. errs /. float_of_int (max 1 (List.length errs))

(* --- /proc ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let proc_file pid name =
  Printf.sprintf "/proc/%s/%s" (match pid with None -> "self" | Some p -> string_of_int p) name

(* This process's peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (proc_file None "status")))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* utime + stime of a whole process (all threads, dead ones included),
   from /proc/PID/stat, in seconds (USER_HZ = 100 on Linux). *)
let proc_cpu_s pid =
  let s = read_file (proc_file (Some pid) "stat") in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  float_of_string (fields.(11)) /. 100. +. float_of_string fields.(12) /. 100.

(* --- files ------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* --- child processes -------------------------------------------------- *)

(* Children see no GPP_* variable, so only their arguments shape the
   scenario. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "GPP_"))
       (Array.to_list (Unix.environment ())))

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let rec waitpid_noeintr pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Run [jobs] as [(prog, args)] at most [width] at a time, each with
   stdout captured to a file under [dir]; returns (exit status, stdout)
   per job, in order. *)
let run_captured ?(width = 2) ~dir jobs =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) (Unix.WEXITED 255, "") in
  let running = Hashtbl.create 4 in
  let null = devnull () in
  let finish () =
    let pid, status = Unix.wait () in
    let i, out_path = Hashtbl.find running pid in
    Hashtbl.remove running pid;
    results.(i) <- (status, read_file out_path);
    Sys.remove out_path
  in
  Array.iteri
    (fun i (prog, args) ->
      if Hashtbl.length running >= width then finish ();
      let out_path = Filename.concat dir (Printf.sprintf "ref-%d.out" i) in
      let fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process_env prog (Array.append [| prog |] args) (child_env ()) null fd null
      in
      Unix.close fd;
      Hashtbl.replace running pid (i, out_path))
    jobs;
  while Hashtbl.length running > 0 do
    finish ()
  done;
  Unix.close null;
  Array.to_list results

(* --- the result line -------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A human table, then the machine-readable line — always last. *)
let print_result ~workload ~correct ~attempted ~failed metrics =
  Printf.printf "%s: %d attempted, %d failed (failed_share %.4f), correct %b\n" workload attempted
    failed
    (if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted)
    correct;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (json_escape m.name)
             (value m.value) (json_escape m.unit_))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
