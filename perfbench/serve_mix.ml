(* The serve layer's ledger rows: the shipped `grophecy serve` binary as
   a child process, an open-loop load generator in this process, and the
   server's /metrics.  predict-cold's traced run calls [run].

   The generator sends on a fixed schedule (rate x seconds requests,
   each due at t0 + i / rate), spins between sends (select(2) with a
   zero timeout) rather than sleeping, keeps at most [nproc] requests in
   flight, writes every request with a single write(2), and times each
   request from its due time, so a stall is charged to every request
   queued behind it.

   The server runs with its shipped defaults, so the inline store flush
   (every 64th request when the store is dirty) is part of the tail. *)

module U = Util

(* --- the mix ----------------------------------------------------------- *)

(* Hot (workload, machine) pairs: cheap to warm, and argonne/section2b
   share a GPU, so one warm-up simulation serves both. *)
let hot_workloads = [ "hotspot/64 x 64"; "hotspot/512 x 512"; "vecadd/16M" ]
let hot_machines = [ "argonne"; "section2b"; "gt200" ]
let iterations_per_pair = 3
let rate = 400.
let setups = 3

(* The server's serve.responses capacity.  Set-up fills the table to it
   with one-shot keys, older than the hot ones, so every inline flush of
   the measured phase rewrites a full table, and each one-shot miss
   evicts a filler rather than a hot key. *)
let response_capacity = 256

(* Shares of the offered load, by class.  The one-shot (what-if) share
   stays well away from 50%, so the median falls among hits; the ~1.6%
   of requests that flush the store inline (one in 64) set the p99. *)
type cls = Healthz | Hit_get | Hit_post | Miss | Fresh_conn

let class_name = function
  | Healthz -> "healthz"
  | Hit_get -> "hit"
  | Hit_post -> "post_hit"
  | Miss -> "miss"
  | Fresh_conn -> "fresh_conn"

let draw_class rng =
  let u = Random.State.float rng 1. in
  if u < 0.05 then Healthz
  else if u < 0.55 then Hit_get
  else if u < 0.85 then Hit_post
  else if u < 0.90 then Miss
  else Fresh_conn

(* --- HTTP ---------------------------------------------------------------- *)

let percent_encode s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Printf.bprintf b "%%%02X" (Char.code c))
    s;
  Buffer.contents b

let request_bytes ?(close = false) ?(body = "") ~meth target =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n%s%sContent-Length: %d\r\n\r\n%s" meth
    target
    (if close then "Connection: close\r\n" else "")
    (if body = "" then "" else "Content-Type: application/json\r\n")
    (String.length body) body

type key = { workload : string; machine : string; iterations : int }

let project_get ?close k =
  request_bytes ?close ~meth:"GET"
    (Printf.sprintf "/project?workload=%s&machine=%s&iterations=%d" (percent_encode k.workload)
       k.machine k.iterations)

let project_post k =
  request_bytes ~meth:"POST"
    ~body:
      (Printf.sprintf "{\"workload\": \"%s\", \"machine\": \"%s\", \"iterations\": %d}" k.workload
         k.machine k.iterations)
    "/project"

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* One write(2) per request: a short write is a generator failure, not
   something to paper over with a second write. *)
let send fd bytes =
  let n = String.length bytes in
  if Unix.write_substring fd bytes 0 n <> n then failwith "short write"

let find_sub s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* A complete response at the head of [s]: (status, body, bytes used). *)
let parse_response s =
  match find_sub s "\r\n\r\n" ~from:0 with
  | None -> None
  | Some eoh ->
      let head = String.sub s 0 eoh in
      let lines = String.split_on_char '\n' head in
      let status = Scanf.sscanf (List.hd lines) "HTTP/1.1 %d" Fun.id in
      let length =
        List.fold_left
          (fun acc l ->
            match String.index_opt l ':' with
            | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
                int_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> acc)
          0 lines
      in
      let total = eoh + 4 + length in
      if String.length s < total then None else Some (status, String.sub s (eoh + 4) length, total)

let chunk = Bytes.create 65536

(* Read once into [buf]; false on EOF. *)
let read_into fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | k ->
      Buffer.add_subbytes buf chunk 0 k;
      true

(* Blocking round trip on [fd], for set-up and read-out only. *)
let roundtrip fd bytes =
  send fd bytes;
  let buf = Buffer.create 4096 in
  let rec go () =
    match parse_response (Buffer.contents buf) with
    | Some (status, body, _) -> (status, body)
    | None -> if read_into fd buf then go () else failwith "connection closed mid-response"
  in
  go ()

let get port target =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> roundtrip fd (request_bytes ~close:true ~meth:"GET" target))

(* /metrics: `gpp_name value` lines. *)
let metrics port =
  let status, body = get port "/metrics" in
  if status <> 200 then failwith "/metrics failed";
  List.filter_map
    (fun l -> match String.split_on_char ' ' l with [ k; v ] -> Some (k, float_of_string v) | _ -> None)
    (String.split_on_char '\n' body)

let counter m name = Option.value ~default:0. (List.assoc_opt name m)

(* --- the server process ------------------------------------------------ *)

type server = { pid : int; port : int }

let spawn ~grophecy ~store =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = U.devnull () in
  let pid =
    Unix.create_process_env grophecy
      [| grophecy; "serve"; "--listen"; "127.0.0.1:0"; "--cache-dir"; store |]
      (U.child_env ()) null w null
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match String.rindex_opt line ':' with
  | Some i -> { pid; port = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      ignore (U.waitpid_noeintr pid);
      failwith "grophecy serve did not report its address"

let wait_healthy s =
  let deadline = U.now_s () +. 30. in
  let rec go () =
    match get s.port "/healthz" with
    | 200, _ -> ()
    | _ | (exception Unix.Unix_error (_, _, _)) | (exception Failure _) ->
        if U.now_s () > deadline then failwith "server never became healthy" else go ()
  in
  go ()

(* SIGTERM must flush the store and exit 0. *)
let stop s =
  Unix.kill s.pid Sys.sigterm;
  match U.waitpid_noeintr s.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  try ignore (U.waitpid_noeintr s.pid) with Unix.Unix_error (_, _, _) -> ()

(* --- set-up ------------------------------------------------------------ *)

type setup = {
  server : server;
  ready_s : float list;  (** Spawn to first 200 on /healthz, per restart. *)
  checks_ok : bool;  (** Every SIGTERM exited 0 with a flushed store. *)
}

let store_flushed store =
  let f = Filename.concat store "serve.responses.gppc" in
  Sys.file_exists f && (Unix.stat f).Unix.st_size > 0

(* Start on an empty store, fill the response table with [fillers] (GET)
   and then every hot key (GET and POST, which also warms
   transform.search and gpusim.run_mean), SIGTERM, restart on the same
   store, wait for /healthz.  Done [setups] times; the last restarted
   server is the one measured. *)
let set_up ~grophecy ~dir ~fillers hot =
  let rec go i acc_ready ok =
    let store = Filename.concat dir (Printf.sprintf "store-%d" i) in
    U.mkdir_p store;
    let first = spawn ~grophecy ~store in
    let warmed =
      try
        wait_healthy first;
        let fd = connect first.port in
        let get_ok k = fst (roundtrip fd (project_get k)) = 200 in
        let ok k = get_ok k && fst (roundtrip fd (project_post k)) = 200 in
        let all_ok = List.for_all get_ok fillers && List.for_all ok hot in
        Unix.close fd;
        all_ok
      with e ->
        kill first;
        raise e
    in
    let clean = stop first && store_flushed store in
    let t_spawn = U.now_s () in
    let second = spawn ~grophecy ~store in
    (try wait_healthy second
     with e ->
       kill second;
       raise e);
    let acc_ready = (U.now_s () -. t_spawn) :: acc_ready in
    let ok = ok && warmed && clean in
    if i = setups then { server = second; ready_s = acc_ready; checks_ok = ok }
    else go (i + 1) acc_ready (stop second && ok)
  in
  go 1 [] true

(* --- the load generator ------------------------------------------------- *)

type req = {
  due : float;
  cls : cls;
  key : int;  (** Index into the key table; -1 for /healthz. *)
  bytes : string;
}

type outcome = {
  mutable sent : float;
  mutable finished : float;
  mutable status : int;
  mutable body : string;
}

type slot = {
  mutable conn : Unix.file_descr option;
      (** The slot's one open socket: its keep-alive connection, or a
          one-shot connection while a [Fresh_conn] request is in flight,
          so open connections never exceed the slot count. *)
  mutable active : int option;  (** Request in flight. *)
  buf : Buffer.t;
}

let nproc () = max 1 (Domain.recommended_domain_count ())

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let generate ~port ~(reqs : req array) =
  let n = Array.length reqs in
  let out = Array.init n (fun _ -> { sent = 0.; finished = 0.; status = 0; body = "" }) in
  let slots = Array.init (nproc ()) (fun _ -> { conn = None; active = None; buf = Buffer.create 4096 }) in
  let drop slot =
    Option.iter close_quietly slot.conn;
    slot.conn <- None
  in
  let complete slot i ~status ~body =
    let o = out.(i) in
    o.finished <- U.now_s ();
    o.status <- status;
    o.body <- body;
    slot.active <- None;
    Buffer.clear slot.buf;
    if status = 0 then drop slot
    else if reqs.(i).cls = Fresh_conn then begin
      (* Re-open the keep-alive connection now, outside any request's
         time, so the next keep-alive request finds it established. *)
      drop slot;
      slot.conn <- (try Some (connect port) with Unix.Unix_error (_, _, _) -> None)
    end
  in
  let dispatch slot i =
    let r = reqs.(i) in
    out.(i).sent <- U.now_s ();
    slot.active <- Some i;
    match
      if r.cls = Fresh_conn then drop slot;
      let fd =
        match slot.conn with
        | Some fd -> fd
        | None ->
            let fd = connect port in
            slot.conn <- Some fd;
            fd
      in
      send fd r.bytes
    with
    | () -> ()
    | exception (Unix.Unix_error (_, _, _) | Failure _) -> complete slot i ~status:0 ~body:""
  in
  let poll ~timeout =
    let busy =
      Array.fold_left
        (fun acc s -> match (s.active, s.conn) with Some _, Some fd -> fd :: acc | _ -> acc)
        [] slots
    in
    if busy = [] && timeout > 0. then ignore (Unix.select [] [] [] timeout)
    else if busy <> [] then begin
      let ready, _, _ = Unix.select busy [] [] timeout in
      Array.iter
        (fun slot ->
          match (slot.active, slot.conn) with
          | Some i, Some fd when List.mem fd ready -> (
              match read_into fd slot.buf with
              | false -> complete slot i ~status:0 ~body:""
              | true -> (
                  match parse_response (Buffer.contents slot.buf) with
                  | Some (status, body, _) -> complete slot i ~status ~body
                  | None -> ())
              | exception Unix.Unix_error (_, _, _) -> complete slot i ~status:0 ~body:"")
          | _ -> ())
        slots
    end
  in
  let next = ref 0 in
  let idle () = Array.for_all (fun s -> s.active = None) slots in
  while !next < n || not (idle ()) do
    let now = U.now_s () in
    (if !next < n && reqs.(!next).due <= now then
       match Array.find_opt (fun s -> s.active = None) slots with
       | Some slot ->
           dispatch slot !next;
           incr next
       | None -> ());
    (* Spin while sends remain; block only for the last responses. *)
    poll ~timeout:(if !next < n then 0. else 0.01)
  done;
  Array.iter drop slots;
  out

(* --- the workload ------------------------------------------------------- *)

type result = { attempted : int; failed : int; correct : bool; layers : U.metric list }

let zipf_sampler rng n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  fun () ->
    let u = Random.State.float rng total in
    let rec go k acc = if k = n - 1 || acc +. w.(k) > u then k else go (k + 1) (acc +. w.(k)) in
    go 0 0.

(* [seconds] of the mix at [rate]; with [corrupt], the first one-shot
   key's reference is corrupted, which fails exactly one request. *)
let run ~grophecy ~dir ~refcache ~seed ~seconds ~corrupt =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let pairs = List.concat_map (fun w -> List.map (fun m -> (w, m)) hot_machines) hot_workloads in
  (* Hot keys: a few small iteration counts per pair, Zipf-ranked in a
     seeded order.  54 responses (GET + POST) against the 256-entry
     serve.responses memo. *)
  let hot =
    List.concat_map
      (fun (workload, machine) ->
        let used = Hashtbl.create 4 in
        List.init iterations_per_pair (fun _ ->
            let rec fresh () =
              let n = 1 + Random.State.int rng 100 in
              if Hashtbl.mem used n then fresh () else (Hashtbl.add used n (); n)
            in
            { workload; machine; iterations = fresh () }))
      pairs
    |> Array.of_list
  in
  U.shuffle rng hot;
  let zipf = zipf_sampler rng (Array.length hot) in
  let pairs_a = Array.of_list pairs in
  let used_iters = Hashtbl.create 1024 in
  Array.iter (fun k -> Hashtbl.replace used_iters k ()) hot;
  (* A what-if key no earlier draw has used: a warm pair, a new count. *)
  let one_shot () =
    let workload, machine = pairs_a.(Random.State.int rng (Array.length pairs_a)) in
    let rec fresh () =
      let k = { workload; machine; iterations = 101 + Random.State.int rng 4900 } in
      if Hashtbl.mem used_iters k then fresh () else (Hashtbl.add used_iters k (); k)
    in
    fresh ()
  in
  let fillers = List.init (response_capacity - (2 * Array.length hot)) (fun _ -> one_shot ()) in
  (* Keys [0, hot) are the hot ones; each one-shot miss appends its own. *)
  let misses = ref [] and nkeys = ref (Array.length hot) in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let proto =
    Array.init n (fun i ->
        let cls = draw_class rng in
        let key, bytes =
          match cls with
          | Healthz -> (-1, request_bytes ~meth:"GET" "/healthz")
          | Hit_get ->
              let k = zipf () in
              (k, project_get hot.(k))
          | Hit_post ->
              let k = zipf () in
              (k, project_post hot.(k))
          | Fresh_conn ->
              let k = zipf () in
              (k, project_get ~close:true hot.(k))
          | Miss ->
              let k = one_shot () in
              misses := k :: !misses;
              incr nkeys;
              (!nkeys - 1, project_get k)
        in
        (float_of_int i /. rate, cls, key, bytes))
  in
  let keys = Array.append hot (Array.of_list (List.rev !misses)) in
  let s = set_up ~grophecy ~dir ~fillers (Array.to_list hot) in
  let server = s.server in
  let stopped = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped then kill server) @@ fun () ->
  let before = metrics server.port in
  let disk_entries =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 10 && String.sub k 0 10 = "gpp_cache_" && Filename.check_suffix k "_entries"
        then acc +. v
        else acc)
      0. before
  in
  let cpu0 = U.proc_cpu_s server.pid in
  let start = U.now_s () +. 0.05 in
  let reqs = Array.map (fun (off, cls, key, bytes) -> { due = start +. off; cls; key; bytes }) proto in
  let out = generate ~port:server.port ~reqs in
  let cpu = U.proc_cpu_s server.pid -. cpu0 in
  let after = metrics server.port in
  let delta name = counter after name -. counter before name in
  let clean_exit = stop server in
  stopped := true;
  let flushed = store_flushed (Filename.concat dir (Printf.sprintf "store-%d" setups)) in
  (* References: what `grophecy project` prints for each distinct key,
     recorded after the timed phase. *)
  let refs =
    U.run_captured ~dir
      (Array.to_list
         (Array.map
            (fun k ->
              ( grophecy,
                [| "project"; k.workload; "-m"; k.machine; "-n"; string_of_int k.iterations;
                   "--cache-dir"; refcache |] ))
            keys))
    |> List.map (function Unix.WEXITED 0, out -> Some out | _ -> None)
    |> Array.of_list
  in
  let first_miss = Array.length hot in
  if corrupt && first_miss < Array.length refs then
    refs.(first_miss) <- Option.map (fun r -> "corrupted reference\n" ^ r) refs.(first_miss);
  let ok i =
    let o = out.(i) and r = reqs.(i) in
    o.status = 200
    &&
    if r.key < 0 then find_sub o.body "\"ok\"" ~from:0 <> None
    else match refs.(r.key) with Some expected -> o.body = expected | None -> false
  in
  let failed = ref 0 in
  Array.iteri (fun i _ -> if not (ok i) then incr failed) reqs;
  let lat i = (out.(i).finished -. reqs.(i).due) *. 1000. in
  let all_lat = U.sorted_of (List.init n lat) in
  let tail, tail_label = U.tail all_lat in
  let class_p50 c =
    let l = List.filter_map (fun i -> if reqs.(i).cls = c then Some (lat i) else None) (List.init n Fun.id) in
    (U.percentile (U.sorted_of l) 5000, List.length l)
  in
  let late = U.sorted_of (List.init n (fun i -> (out.(i).sent -. reqs.(i).due) *. 1000.)) in
  let m = U.metric in
  let ratio a b = if b = 0. then 0. else a /. b in
  let lower name = delta (Printf.sprintf "gpp_cache_%s_hits" name) in
  let lower_all name = lower name +. delta (Printf.sprintf "gpp_cache_%s_misses" name) in
  let p50_of c =
    let v, count = class_p50 c in
    m (Printf.sprintf "serve.%s_p50_ms" (class_name c)) "ms" v ~note:(Printf.sprintf "%d samples" count)
  in
  let layers =
    List.map p50_of [ Healthz; Hit_get; Hit_post; Miss; Fresh_conn ]
    @ [
        m "serve.tail_ms" "ms" tail
          ~note:(Printf.sprintf "%s of %d requests from due time, inline flush included" tail_label n);
        m "serve.cpu_ms_per_request" "ms" (cpu *. 1000. /. float_of_int n)
          ~note:(Printf.sprintf "server CPU (/proc) at %.0f req/s offered" rate);
        m "cache.serve_responses.hit_ratio" "ratio"
          (ratio (lower "serve_responses") (lower_all "serve_responses"));
        m "cache.lower_tier.hit_ratio" "ratio"
          (ratio
             (lower "transform_search" +. lower "gpusim_run_mean")
             (lower_all "transform_search" +. lower_all "gpusim_run_mean"));
        m "serve.ready_s" "s" (U.median_float s.ready_s)
          ~note:(Printf.sprintf "median of %d restarts, Memo.load_disk included" setups);
        m "cache.disk_entries" "count" disk_entries ~note:"loaded by the restarted server";
        m "serve.generator_late_p99_ms" "ms" (U.percentile late 9900);
        m "serve.errors" "count" (delta "gpp_serve_errors" +. delta "gpp_serve_broken_pipe");
      ]
  in
  let checks_ok = s.checks_ok && clean_exit && flushed && disk_entries >= float_of_int response_capacity in
  if not checks_ok then prerr_endline "serve: a SIGTERM/flush/reload check failed";
  { attempted = n; failed = !failed; correct = !failed = 0 && checks_ok; layers }
