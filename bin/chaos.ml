(* rpq chaos: the deterministic crash-recovery and client-churn harness.

   Both modes check that every answer the system settles, whatever fails
   around it, equals a fault-free, unhedged [rpq batch] run's (modulo
   wall-clock fields) and carries a certificate that re-checks. Stdout is
   a pure function of the seed and the jobfile, so two runs diff clean. *)

open Resilience
module Proto = Cert.Proto
module Journal = Runner.Journal

type mode =
  | Crash of int  (** supervisor crashes to inject *)
  | Churn of { kills : int; net_period : int; hedge_after : float option }

(* ---- settled answers (shared with `rpq journal`) ---- *)

let by_id (a, _) (b, _) = String.compare a b

(* A journal's report and its settled answers: [(id, (digest, reply))]
   for the last [Done] per id, sorted by id. *)
let load_settled path =
  Result.map
    (fun (rep : Journal.report) ->
      let live =
        Hashtbl.fold (fun id (s : Journal.settled) acc -> (id, (s.digest, s.reply)) :: acc) rep.settled []
      in
      (rep, List.sort by_id live))
    (Journal.load path)

(* The settled answers whose certificate fails re-check, as (id, why). *)
let cert_failures settled =
  List.filter_map
    (fun (id, (_, reply)) ->
      match Cert.Checker.check_reply reply with Ok () -> None | Error msg -> Some (id, msg))
    settled

(* ---- the harness ---- *)

exception Failed of string

(* A failed check raises; [run] cleans up, then reports it. *)
let die fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

(* The one certificate pass: [fail id why] on the first settled answer
   whose certificate does not re-check. *)
let certify settled fail =
  match cert_failures settled with [] -> () | (id, msg) :: _ -> fail id msg

type t = {
  dir : string;
  jobfile : string;
  jobs : Proto.job list;
  cfg : Runner.config;
  mutable children : int list;  (** started and not yet reaped *)
}

let file t name = Filename.concat t.dir name

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s (* never: no WUNTRACED *) -> Printf.sprintf "signal %d" s

let forget t pid = t.children <- List.filter (( <> ) pid) t.children

let rec reap t pid =
  match Unix.waitpid [] pid with
  | _, status ->
      forget t pid;
      status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap t pid

(* A server drains on SIGTERM and reaps its workers before it exits. *)
let stop t pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap t pid

let cleanup t =
  List.iter (fun pid -> ignore (stop t pid)) t.children;
  Array.iter
    (fun f -> try Sys.remove (file t f) with Sys_error _ -> ())
    (try Sys.readdir t.dir with Sys_error _ -> [||]);
  try Unix.rmdir t.dir with Unix.Unix_error _ -> ()

(* Starts this binary as [rpq ARGS], its stdout on [out] (by default our
   stderr: ours is the report). The schedule owns fault injection, so
   the child gets [faults] and [flight], not our RPQ_FAULTS, RPQ_TRACE
   or RPQ_FLIGHT. *)
let spawn t ?flight ?(out = Unix.stderr) ~faults args =
  let ambient kv =
    List.exists
      (fun p -> String.starts_with ~prefix:p kv)
      [ "RPQ_FAULTS="; "RPQ_TRACE="; "RPQ_FLIGHT=" ]
  in
  let env =
    (("RPQ_FAULTS=" ^ faults) :: List.map (( ^ ) "RPQ_FLIGHT=") (Option.to_list flight))
    @ List.filter (fun kv -> not (ambient kv)) (Array.to_list (Unix.environment ()))
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      (Array.of_list env) Unix.stdin out Unix.stderr
  in
  t.children <- pid :: t.children;
  pid

(* The pool flags every child takes from the one config. *)
let pool_flags (cfg : Runner.config) =
  [
    "--workers"; string_of_int cfg.workers;
    "--retries"; string_of_int cfg.retries;
    "--queue-cap"; string_of_int cfg.queue_cap;
  ]
  @ match cfg.job_timeout with Some s -> [ "--job-timeout"; string_of_float s ] | None -> []

(* Runs the jobfile as an [rpq batch] child, its replies in
   [replies.jsonl], and reaps it. *)
let batch t ?flight ?journal ~faults () =
  let out = Unix.openfile (file t "replies.jsonl") Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    spawn t ?flight ~out ~faults
      ([ "batch"; t.jobfile ]
      @ (match journal with Some j -> [ "--journal"; j ] | None -> [])
      @ pool_flags t.cfg @ [ "--journal-sync"; "per_line" ])
  in
  Unix.close out;
  reap t pid

(* The replies the last batch child printed, keyed like a journal's
   settled answers, under each job's canonical digest. *)
let read_replies t =
  let path = file t "replies.jsonl" in
  let digests = Hashtbl.create 64 in
  List.iter
    (fun (j : Proto.job) -> Hashtbl.replace digests j.id (Journal.canonical_digest j))
    t.jobs;
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Proto.reply_of_json line with
         | Ok r -> (r.Proto.id, (Option.value ~default:"" (Hashtbl.find_opt digests r.Proto.id), r))
         | Error e -> die "bad reply line in %s: %s" path e)

(* Volatile fields zeroed (trace contexts embed pids), so
   equal-modulo-time replies print identically. *)
let normalized (r : Proto.reply) =
  Proto.reply_to_json { r with wall_s = 0.0; stages = []; trace = None }

(* The one diff, keyed by id, in the reference's order and then [side]'s:
   a block per job settled on one side only, or under another digest or
   to another reply (modulo wall clock). Prints the blocks and returns
   their number. *)
let diff ~side ~only ~reference got =
  let in_ref = Hashtbl.of_seq (List.to_seq reference) in
  let in_got = Hashtbl.of_seq (List.to_seq got) in
  let extra = List.filter (fun (id, _) -> not (Hashtbl.mem in_ref id)) got in
  let blocks =
    List.filter_map
      (fun (id, _) ->
        match (Hashtbl.find_opt in_ref id, Hashtbl.find_opt in_got id) with
        | Some (d, r), Some (d', r') when d = d' && Proto.reply_equal_ignoring_time r r' -> None
        | Some (_, r), Some (_, r') ->
            Some
              (Printf.sprintf "diff %s:\n  reference %s\n  %-9s %s" id (normalized r) side
                 (normalized r'))
        | Some _, None -> Some (Printf.sprintf "diff %s: settled only in reference" id)
        | None, _ -> Some (Printf.sprintf "diff %s: settled only %s" id only))
      (reference @ extra)
  in
  List.iter print_endline blocks;
  List.length blocks

(* ---- crash mode ----

   The jobfile runs as [rpq batch] over and over with RPQ_FAULTS armed
   at a seeded crash site, so the supervisor truly dies mid-write
   (_exit 70, no unwinding) and each resume recovers from whatever bytes
   made it to the journal — the closest deterministic approximation of a
   power cut. A final fault-free resume must converge to the reference. *)
let crash t reference ~crashes ~seed =
  let journal = file t "journal" in
  let flight = file t "flight" in
  (* The library's crash hook dumps the flight recorder before _exit 70,
     so every injected crash must leave a parseable black box at the
     path we arm the child with. *)
  let validate_flight () =
    let v =
      match Cert.Json.parse (In_channel.with_open_text flight In_channel.input_all) with
      | exception Sys_error _ -> die "crash left no flight dump at %s" flight
      | Error e -> die "crash left an unparseable flight dump: %s" e
      | Ok v -> v
    in
    let get f conv = Option.bind (Cert.Json.member f v) conv in
    (match get "v" Cert.Json.to_int_opt with Some 1 -> () | _ -> die "flight dump lacks version 1");
    (match get "reason" Cert.Json.to_str_opt with
    | Some r when String.starts_with ~prefix:"crash:" r -> ()
    | Some r -> die "flight dump has unexpected reason %S" r
    | None -> die "flight dump lacks a reason");
    (match Cert.Json.member "events" v with
    | Some (Cert.Json.List _) -> ()
    | _ -> die "flight dump lacks an events array");
    Sys.remove flight
  in
  (* Seeded schedule: the seed's Invariant.Prng stream, as for
     Resilience.Faults. Printed up front so two runs of the same seed
     diff byte-identically. [journal.mid_compact] is excluded from the
     random schedule: whether auto-compaction runs at all depends on
     journal geometry, so a drawn hit count would usually never fire and
     the round would inject nothing. The unit suite covers that site
     directly. *)
  let sites =
    Array.of_list (List.filter (fun s -> s <> "journal.mid_compact") Faults.crash_sites)
  in
  let rng = Invariant.Prng.make seed in
  let draw bound = Invariant.Prng.int rng bound in
  let njobs = List.length t.jobs in
  Printf.printf "chaos: seed %d, %d planned crashes, %d jobs\n" seed crashes njobs;
  (* Each crash's hit count is drawn below the number of times its site
     is sure to fire in the next run, so every crash fires and the
     schedule is a function of the seed alone, never of how the workers'
     completions happened to interleave. [unsettled] is a lower bound on
     the jobs left: a run with U unsettled jobs appends a Started and a
     Done record for each (every append reaches [pre_fsync] under
     [per_line]) and dispatches each at least once, so it visits a
     journal site at least 2U times and [pool.post_dispatch] at least U
     times. A crash at the h-th visit settles at most the jobs whose Done
     record was written by then (two appends each), or whose dispatch
     came before the h-th. *)
  let per_job site = if site = "pool.post_dispatch" then 1 else 2 in
  let settled_at_most site hits =
    match site with
    | "pool.post_dispatch" -> hits - 1
    | "journal.pre_append" -> (hits - 1) / 2
    | _ -> hits / 2
  in
  let unsettled = ref njobs in
  let settled_floor = ref 0 in
  let fired = ref 0 in
  for i = 1 to crashes do
    if !unsettled <= 0 then
      (* Every job may be settled: a crash could find no append or
         dispatch left to interrupt. *)
      Printf.printf "crash %d: skipped (journal may be complete)\n" i
    else begin
      let site = sites.(draw (Array.length sites)) in
      let hits = 1 + draw (per_job site * !unsettled) in
      unsettled := !unsettled - settled_at_most site hits;
      let spec = Printf.sprintf "crash:%s:%d" site hits in
      Printf.printf "crash %d: %s\n" i spec;
      (match batch t ~flight ~journal ~faults:spec () with
      | Unix.WEXITED 70 ->
          incr fired;
          validate_flight ()
      | Unix.WEXITED (0 | 1) ->
          (* The site never reached its hit count: the batch simply
             completed. Later resumes reuse its journal. *)
          ()
      | st -> die "crashed run %d died unexpectedly (%s)" i (status_to_string st));
      (* Every answer that survived a crash must carry a certificate that
         re-checks: a settled record whose evidence does not hold is
         exactly the corruption the journal + certificate machinery
         exists to rule out. *)
      let settled =
        match load_settled journal with
        | Error e -> die "crash left a journal that refuses to load: %s" e
        | Ok (_, settled) ->
            certify settled (die "settled job %S survived a crash with a bad certificate: %s");
            List.length settled
      in
      Printf.eprintf "chaos: after crash %d: %d settled\n%!" i settled;
      if settled < !settled_floor then
        die "settled answers went backwards (%d after %d): journal lost data" settled
          !settled_floor;
      if njobs - settled < !unsettled then
        die "crash %d settled %d jobs, more than its hit count allows" i
          (settled - !settled_floor);
      settled_floor := settled
    end
  done;
  if crashes > 0 && !fired = 0 then die "no crash site ever fired: the schedule injected nothing";
  (* Final resume, fault-free: must converge and agree with the
     reference modulo wall-clock fields. *)
  (match batch t ~journal ~faults:"off" () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 1 -> die "final resume settled with structured failures"
  | st -> die "final resume died (%s)" (status_to_string st));
  let final = read_replies t in
  certify final (die "final reply %S carries an invalid certificate: %s");
  let diffs = diff ~side:"resumed" ~only:"on resume" ~reference final in
  List.iter (fun (_, (_, r)) -> print_endline (normalized r)) final;
  Printf.printf "chaos: %d flight dumps validated\n" !fired;
  Printf.printf "chaos: %d jobs, %d of %d planned crashes fired, diffs: %d\n" njobs !fired
    crashes diffs;
  diffs

(* ---- churn mode ----

   An `rpq serve --listen` child, hedging if asked, with a
   content-invariant net fault armed ([net:partial_write:P] halves every
   socket flush; payloads are unchanged), meets a seeded schedule of
   clients: victims that vanish mid-stream, two survivors (one a slow
   reader) that split every job, and a finisher that resubmits every job
   so the journal's settled map is total. Every reply read must be
   certified, the server must drain cleanly on SIGTERM, and its journal
   must equal the reference. *)
let churn t reference ~kills ~seed ~net_period ~hedge_after =
  (* A victim's vanished reader must surface as EPIPE in the server, and
     a vanished server as EPIPE here — never as SIGPIPE. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let jobs = Array.of_list t.jobs in
  let njobs = Array.length jobs in
  let sock = file t "churn.sock" in
  let journal = file t "churn.journal" in
  Printf.printf "chaos churn: seed %d, %d jobs, %d kills, net:partial_write:%d%s\n" seed njobs
    kills net_period
    (match hedge_after with Some s -> Printf.sprintf ", hedge-after %g" s | None -> "");
  let server =
    spawn t
      ~faults:(Printf.sprintf "net:partial_write:%d" net_period)
      ([ "serve"; "--listen"; sock; "--journal"; journal ]
      @ pool_flags t.cfg
      @ [ "--cache-entries"; "256"; "--client-inflight"; "4"; "--drain-grace"; "30" ]
      @ match hedge_after with Some s -> [ "--hedge-after"; string_of_float s ] | None -> [])
  in
  (* Connects once the server listens; a server that exits first fails
     the run. *)
  let connect () =
    let rec go n =
      match Runner.Transport.connect_unix sock with
      | conn -> conn
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 400 ->
          (match Unix.waitpid [ Unix.WNOHANG ] server with
          | 0, _ -> ()
          | _, st ->
              forget t server;
              die "server exited (%s)" (status_to_string st)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          Unix.sleepf 0.025;
          go (n + 1)
      | exception Unix.Unix_error (e, _, _) ->
          die "cannot connect to %s: %s" sock (Unix.error_message e)
    in
    go 0
  in
  let send_job oc (j : Proto.job) = Printf.fprintf oc "%s\n%!" (Proto.job_to_json j) in
  (* Every reply a client reads must be settled and certified. *)
  let read_checked ic =
    match input_line ic with
    | exception End_of_file -> die "server closed a surviving client's connection"
    | line -> (
        match Proto.reply_of_json line with
        | Error e -> die "bad reply line from server: %s" e
        | Ok r ->
            (match r.verdict with
            | Proto.V_failed _ -> die "job %S came back failed: %s" r.id (normalized r)
            | Proto.V_exact _ | Proto.V_bounded _ -> ());
            certify [ (r.id, ("", r)) ] (die "reply %S carries an invalid certificate: %s"))
  in
  let close (ic, oc) =
    close_out_noerr oc;
    close_in_noerr ic
  in
  (* The seed's stream, as for the crash schedule; printed up front so
     two runs of one seed diff clean. *)
  let rng = Invariant.Prng.make seed in
  let draw bound = Invariant.Prng.int rng bound in
  for k = 1 to kills do
    let nsub = 1 + draw (min 4 njobs) in
    let start = draw njobs in
    let read_first = draw 2 = 1 in
    Printf.printf "kill %d: victim submits %d job(s) from index %d%s\n" k nsub start
      (if read_first then ", reads one reply" else "");
    let ((ic, oc) as victim) = connect () in
    for i = 0 to nsub - 1 do
      send_job oc jobs.((start + i) mod njobs)
    done;
    if read_first then read_checked ic;
    (* Vanish mid-stream: queued jobs get cancelled server-side, inflight
       ones settle into journal and cache with nobody to deliver to. *)
    close victim
  done;
  (* Survivors: two clients split every job; the second reads slowly.
     Each must get exactly its replies, every certificate valid. *)
  let ((ic1, oc1) as s1) = connect () in
  let ((ic2, oc2) as s2) = connect () in
  Array.iteri (fun i j -> send_job (if i mod 2 = 0 then oc1 else oc2) j) jobs;
  let n1 = (njobs + 1) / 2 in
  let n2 = njobs / 2 in
  for _ = 1 to n1 do
    read_checked ic1
  done;
  for _ = 1 to n2 do
    Unix.sleepf 0.002;
    read_checked ic2
  done;
  close s1;
  close s2;
  Printf.printf "survivors: %d + %d replies, all certificates valid\n" n1 n2;
  (* Finisher: resubmit everything under the original ids so the settled
     map is total; cancelled jobs compute now, settled ones come from the
     certificate-gated cache. *)
  let ((icf, ocf) as finisher) = connect () in
  Array.iter (send_job ocf) jobs;
  for _ = 1 to njobs do
    read_checked icf
  done;
  close finisher;
  (match stop t server with
  | Unix.WEXITED 0 -> ()
  | st -> die "server did not drain cleanly on SIGTERM (%s)" (status_to_string st));
  print_endline "server drained cleanly on SIGTERM";
  let churned =
    match load_settled journal with
    | Error e -> die "journal %s refuses to load: %s" journal e
    | Ok (_, settled) -> settled
  in
  let diffs =
    diff ~side:"churned" ~only:"under churn" ~reference:(List.sort by_id reference) churned
  in
  List.iter (fun (_, (_, r)) -> print_endline (normalized r)) churned;
  Printf.printf "chaos churn: %d jobs, %d kills, diffs: %d\n" njobs kills diffs;
  diffs

(* Runs one chaos round of [jobs], read from [jobfile], in a fresh temp
   dir. Returns 0 iff there are no diffs; a failed check is printed, and
   returns 1, once every child is reaped and the dir is gone. *)
let run ~jobfile ~jobs ~seed cfg mode =
  let dir = Filename.temp_file "rpq_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let t = { dir; jobfile; jobs; cfg; children = [] } in
  match
    Fun.protect ~finally:(fun () -> cleanup t) @@ fun () ->
    (* The fault-free, unhedged reference both modes compare against. *)
    let reference =
      match batch t ~faults:"off" () with
      | Unix.WEXITED (0 | 1) -> read_replies t
      | st -> die "reference run died unexpectedly (%s)" (status_to_string st)
    in
    match mode with
    | Crash crashes -> crash t reference ~crashes ~seed
    | Churn { kills; net_period; hedge_after } ->
        churn t reference ~kills ~seed ~net_period ~hedge_after
  with
  | diffs -> if diffs = 0 then 0 else 1
  | exception Failed msg ->
      prerr_endline ("rpq: chaos: " ^ msg);
      1
