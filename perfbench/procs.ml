(* Processes the benchmark starts and measures from outside: the live
   [rpq serve] and [rpq batch] runs, their /proc accounting, and the
   closed-loop socket clients. *)

let now = Obs.Clock.now
let rpq = "_build/default/bin/rpq_cli.exe"

(* Children run with the ambient fault, trace and check settings
   stripped, so they compute what a default deployment computes. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:(p ^ "=") kv)
              [ "RPQ_FAULTS"; "RPQ_TRACE"; "RPQ_CHECK"; "RPQ_FLIGHT" ]))
       (Array.to_list (Unix.environment ())))

let spawn ~out ~err args =
  let openw p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let o = openw out and e = openw err in
  Fun.protect
    ~finally:(fun () -> Unix.close o; Unix.close e)
    (fun () ->
      Unix.create_process_env rpq (Array.of_list (rpq :: args)) (child_env ()) Unix.stdin o e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- /proc ---- *)

(* USER_HZ: Linux reports /proc CPU times in hundredths of a second. *)
let clock_ticks = 100.0

(* Fields after the parenthesised command name: state is index 0, ppid 1,
   utime 11, stime 12 (fields 3, 4, 14 and 15 of proc(5)). *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          Some (Array.of_list (String.split_on_char ' ' rest)))

let cpu_s pid =
  match stat_fields pid with
  | Some f when Array.length f > 12 ->
      (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks
  | _ -> 0.0

let children pid =
  Array.fold_left
    (fun acc name ->
      match int_of_string_opt name with
      | None -> acc
      | Some c -> (
          match stat_fields c with
          | Some f when Array.length f > 1 && f.(1) = string_of_int pid -> c :: acc
          | _ -> acc))
    [] (Sys.readdir "/proc")

let family pid = pid :: children pid

(* VmHWM, the resident-set high-water mark, in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)

let family_cpu_s pid = List.fold_left (fun acc p -> acc +. cpu_s p) 0.0 (family pid)
let family_peak_rss_mb pid =
  List.fold_left (fun acc p -> Float.max acc (peak_rss_mb p)) 0.0 (family pid)

(* ---- line-framed socket connections ---- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = Unix.close c.fd

let send c line =
  let b = Bytes.unsafe_of_string (line ^ "\n") in
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + Unix.write c.fd b off (len - off)) in
  go 0

(* One read; returns the complete lines it finished. Raises End_of_file
   when the peer closed. *)
let read_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

let rec read_line c = match read_lines c with [] -> read_line c | l :: _ -> l

let read_all c =
  let rec go () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> Buffer.contents c.buf
    | n ->
        Buffer.add_subbytes c.buf c.chunk 0 n;
        go ()
  in
  go ()

(* ---- the live server ---- *)

type server = { pid : int; sock : string }

let alive pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false

(* Spawns [rpq serve] and returns it with its set-up time: from the spawn
   until the server answers a stats request on its socket. Cached replies
   dominate the server's memory, so the cache is sized to fill within the
   first seconds of a window: peak RSS then measures the steady state, not
   how many jobs the window happened to finish. *)
let start_server ~dir =
  let sock = Filename.concat dir "serve.sock" and journal = Filename.concat dir "serve.journal" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ sock; journal ];
  let t0 = now () in
  let pid =
    spawn ~out:(Filename.concat dir "serve.out") ~err:(Filename.concat dir "serve.log")
      [ "serve"; "--listen"; sock; "--workers"; "2"; "--journal"; journal; "--cache-entries"; "64" ]
  in
  let rec wait_ready () =
    if now () -. t0 > 60.0 || not (alive pid) then failwith "rpq serve did not come up"
    else
      match connect sock with
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          Unix.sleepf 0.0002;
          wait_ready ()
      | c ->
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () ->
              send c {|{"id":"ready","stats":true}|};
              ignore (read_line c))
  in
  wait_ready ();
  ({ pid; sock }, now () -. t0)

(* SIGTERM drains the server ([~drain:false]: SIGKILL, for servers that
   never took a job); any worker it leaves behind is killed. *)
let stop_server ?(drain = true) s =
  let workers = children s.pid in
  (try Unix.kill s.pid (if drain then Sys.sigterm else Sys.sigkill) with Unix.Unix_error _ -> ());
  let deadline = now () +. 30.0 in
  let rec wait () =
    if alive s.pid then
      if now () > deadline then (
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid))
      else (
        Unix.sleepf 0.002;
        wait ())
  in
  (try wait () with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  let gone w = match stat_fields w with None -> true | Some f -> f.(0) = "Z" in
  List.iter
    (fun w -> if not (gone w) then try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ())
    workers;
  let deadline = now () +. 10.0 in
  while List.exists (fun w -> not (gone w)) workers && now () < deadline do
    Unix.sleepf 0.002
  done

(* One metrics scrape: a "GET" line on the job socket, answered with an
   HTTP/1.0 response; returns "name value" pairs of the body. *)
let scrape s target =
  let c = connect s.sock in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      send c (Printf.sprintf "GET %s HTTP/1.0\r\n\r" target);
      List.filter_map
        (fun line ->
          if line = "" || line.[0] = '#' then None
          else
            match String.rindex_opt line ' ' with
            | None -> None
            | Some i ->
                Option.map
                  (fun v -> (String.sub line 0 i, v))
                  (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
        (String.split_on_char '\n' (read_all c)))

(* ---- the closed loop ---- *)

type sample = { index : int; latency_s : float; line : string }

(* [conns] clients, one outstanding job each: a client sends its next job
   only once the previous reply is in. [next ()] yields the next job's
   stream index and wire line, or [None] when the stream is spent; no job
   is sent after [until]. Returns the replies in arrival order and the
   time the last one arrived. *)
let closed_loop ~sock ~conns ~until ~next =
  let cs = Array.init conns (fun _ -> connect sock) in
  let pending = Array.make conns None in
  let samples = ref [] in
  let last = ref (now ()) in
  let issue i =
    if now () < until then
      match next () with
      | None -> ()
      | Some (index, line) ->
          pending.(i) <- Some (index, now ());
          send cs.(i) line
  in
  Fun.protect
    ~finally:(fun () -> Array.iter close cs)
    (fun () ->
      Array.iteri (fun i _ -> issue i) cs;
      let stall = ref (now ()) in
      let rec loop () =
        let open_fds =
          List.filter_map
            (fun i -> Option.map (fun _ -> cs.(i).fd) pending.(i))
            (List.init conns Fun.id)
        in
        if open_fds <> [] then begin
          if now () -. !stall > 120.0 then failwith "no reply from the server for 120 s";
          let ready, _, _ = Unix.select open_fds [] [] 1.0 in
          Array.iteri
            (fun i c ->
              if List.mem c.fd ready then
                match (read_lines c, pending.(i)) with
                | line :: _, Some (index, t0) ->
                    let t = now () in
                    last := t;
                    stall := t;
                    samples := { index; latency_s = t -. t0; line } :: !samples;
                    pending.(i) <- None;
                    issue i
                | _ -> ())
            cs;
          loop ()
        end
      in
      loop ();
      (List.rev !samples, !last))

(* ---- rpq batch ---- *)

(* Runs one [rpq batch] to completion, sampling the peak RSS of the batch
   supervisor and its workers while it runs. Returns the reply lines, the
   wall time and the peak RSS. *)
let run_batch ~dir ~jobfile =
  let journal = Filename.concat dir "batch.journal" and out = Filename.concat dir "batch.out" in
  if Sys.file_exists journal then Sys.remove journal;
  let t0 = now () in
  let pid =
    spawn ~out ~err:(Filename.concat dir "batch.log")
      [ "batch"; jobfile; "--workers"; "2"; "--journal"; journal ]
  in
  let peak = ref 0.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        peak := Float.max !peak (family_peak_rss_mb pid);
        Unix.sleepf 0.05;
        wait ()
    (* Exit 1 means some job failed; the gate reports which. *)
    | _, Unix.WEXITED (0 | 1) -> ()
    | _ -> failwith "rpq batch failed"
  in
  wait ();
  let wall = now () -. t0 in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file out)) in
  (lines, wall, !peak)
