(* Fork-isolated worker pool.

   Each worker is a forked child connected by two pipes: the parent writes
   job lines down [to_worker] and reads reply lines from [of_worker]. The
   framing is one line per message ([Proto.Json.to_string] never emits a
   raw newline). Workers are single-job: the supervisor only assigns to an
   idle worker, so a reply line always belongs to the single in-flight job.

   Fd hygiene is what makes death detection work: the child closes every
   parent-side fd of every worker (including its own), so when a child
   dies its [of_worker] pipe write end has no surviving holder and the
   parent's read returns EOF. Children exit with [Unix._exit], never
   [Stdlib.exit]: the fork duplicated the parent's buffered channels
   (stdout, any alcotest log), and exiting through at_exit would flush
   those copies a second time. *)

type death =
  | Exited of int  (** nonzero exit code *)
  | Signaled of int  (** killed by this signal, e.g. [Sys.sigkill] *)
  | Timed_out  (** overran the job deadline; died from the SIGTERM *)
  | Wedged  (** overran the deadline AND survived SIGTERM through grace *)
  | Malformed of string  (** replied, but not with a parseable reply line *)

let death_to_string = function
  | Exited c -> Printf.sprintf "worker exited with code %d" c
  | Signaled s -> Printf.sprintf "worker killed by signal %d" s
  | Timed_out -> "worker timed out"
  | Wedged -> "worker wedged (survived SIGTERM; SIGKILLed)"
  | Malformed line ->
      Printf.sprintf "worker sent a malformed reply: %s"
        (if String.length line > 100 then String.sub line 0 100 ^ "..." else line)

type worker = {
  mutable pid : int;
  mutable to_worker : Unix.file_descr;
  mutable of_worker : Unix.file_descr;
  buf : Buffer.t;  (** partial reply line read so far *)
  mutable job : (string * float) option;  (** (job id, absolute deadline) *)
  mutable term_sent : float option;
      (** when we SIGTERMed it for a timeout; SIGKILL after [grace] *)
  mutable wedged : bool;
      (** it outlived the SIGTERM grace period — ignoring or blocking the
          signal — and took the SIGKILL path *)
}

type config = { workers : int; job_timeout : float option; grace : float }

type t = {
  cfg : config;
  handler : string -> string;
  pool : worker array;
  mutable alive : bool;
  chunk : Bytes.t;  (** every read from a worker's pipe lands here first *)
}

type event =
  | Completed of { id : string; reply : string }
  | Crashed of { id : string; death : death }
  | Trace of { id : string; pid : int; line : string }
      (** one trace event streamed from the worker's pipe sink (the
          [Obs.Trace.pipe_prefix] marker already stripped) *)
  | Input of Unix.file_descr  (** an [~extra] fd is readable *)
  | Writable of Unix.file_descr  (** an [~extra_write] fd is writable *)

let now () = Unix.gettimeofday ()

let rec restart_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = restart_eintr (fun () -> Unix.write fd b !off (n - !off)) in
    off := !off + k
  done

(* Runs in the child, forever: read one job line, run the handler, write
   one reply line. The handler is expected to catch its own exceptions and
   encode them as error replies; if it raises anyway, or the parent closes
   the pipe, we fall through to _exit. *)
let worker_loop handler to_child of_child =
  let ic = Unix.in_channel_of_descr to_child in
  let oc = Unix.out_channel_of_descr of_child in
  (* The supervisor may have installed flight-dump signal handlers; a
     worker must die plainly (its death IS the signal the supervisor
     classifies) and must not clobber the supervisor's dump file. *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ | Sys_error _ -> ());
  Obs.Flight.disable ();
  (* If the supervisor is tracing, stream our spans back interleaved
     with (and marked distinct from) reply lines. Both writers flush
     whole lines and the process is single-threaded, so frames never
     tear. *)
  Obs.Trace.adopt_pipe oc;
  let status = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let reply = handler line in
       output_string oc reply;
       output_char oc '\n';
       flush oc
     done
   with
  | End_of_file -> ()
  | _ -> status := 70 (* EX_SOFTWARE: handler raised or pipe broke *));
  Unix._exit !status

let spawn t =
  let job_r, job_w = Unix.pipe ~cloexec:false () in
  let reply_r, reply_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      (* Child: drop every parent-side fd, ours and our siblings'. (The
         inherited trace sink is rebound to the reply pipe inside
         [worker_loop]; until then nothing in this path emits events.) *)
      Unix.close job_w;
      Unix.close reply_r;
      Array.iter
        (fun w ->
          if w.pid <> 0 then begin
            (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
            try Unix.close w.of_worker with Unix.Unix_error _ -> ()
          end)
        t.pool;
      worker_loop t.handler job_r reply_w
  | pid ->
      Unix.close job_r;
      Unix.close reply_w;
      {
        pid;
        to_worker = job_w;
        of_worker = reply_r;
        buf = Buffer.create 256;
        job = None;
        term_sent = None;
        wedged = false;
      }

let create cfg ~handler =
  if cfg.workers < 1 then invalid_arg "Pool.create: need at least one worker";
  if cfg.grace < 0.0 then invalid_arg "Pool.create: negative grace";
  (* A worker dying mid-write must not take the supervisor down with it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      cfg;
      handler;
      pool = Array.init cfg.workers (fun _ ->
          { pid = 0;
            to_worker = Unix.stdin;
            of_worker = Unix.stdin;
            buf = Buffer.create 0;
            job = None;
            term_sent = None;
            wedged = false });
      alive = true;
      chunk = Bytes.create 65536;
    }
  in
  Array.iteri (fun i _ -> t.pool.(i) <- spawn t) t.pool;
  t

let idle_count t =
  Array.fold_left (fun n w -> if w.job = None then n + 1 else n) 0 t.pool

let assign t ~id ?timeout ~payload () =
  if not t.alive then invalid_arg "Pool.assign: pool is shut down";
  let rec find i =
    if i >= Array.length t.pool then invalid_arg "Pool.assign: no idle worker"
    else if t.pool.(i).job = None then t.pool.(i)
    else find (i + 1)
  in
  let w = find 0 in
  (* The effective wall deadline is the tighter of the pool-wide cap and
     the caller's per-job budget (e.g. a client deadline's remainder). *)
  let wall =
    match t.cfg.job_timeout, timeout with
    | None, None -> infinity
    | Some s, None | None, Some s -> s
    | Some a, Some b -> Float.min a b
  in
  let deadline = if wall = infinity then infinity else now () +. wall in
  w.job <- Some (id, deadline);
  w.term_sent <- None;
  w.wedged <- false;
  (try write_all w.to_worker (payload ^ "\n")
   with Unix.Unix_error _ ->
     (* The worker died before we could write; the EOF on its reply pipe
        will surface the crash through [poll] as usual. *)
     ());
  (* A supervisor dying right after handing work out is the window where
     the journal has a [Started] but will never see the [Done]: resume
     must re-dispatch. The chaos harness arms this site to prove it. *)
  Resilience.Faults.crash_site "pool.post_dispatch"

let dead_worker t w status =
  let death =
    match w.term_sent, status with
    | Some _, _ -> if w.wedged then Wedged else Timed_out
    | None, Unix.WSIGNALED s -> Signaled s
    | None, Unix.WEXITED c -> Exited c
    | None, Unix.WSTOPPED s -> Signaled s
  in
  let id = match w.job with Some (id, _) -> id | None -> "" in
  (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
  (try Unix.close w.of_worker with Unix.Unix_error _ -> ());
  (* Mark dead before forking the replacement: the new pipes may reuse the
     fd numbers just closed, and the child must not close them again when
     it sweeps the pool (it would sever its own ends). *)
  w.pid <- 0;
  let fresh = spawn t in
  w.pid <- fresh.pid;
  w.to_worker <- fresh.to_worker;
  w.of_worker <- fresh.of_worker;
  Buffer.clear w.buf;
  w.job <- None;
  w.term_sent <- None;
  w.wedged <- false;
  Obs.Log.info "worker-respawn"
    [
      ("death", Cert.Json.Str (death_to_string death));
      ("pid", Cert.Json.Int fresh.pid);
    ];
  if id = "" then None else Some (Crashed { id; death })

(* Reap a worker whose reply pipe hit EOF (or that we SIGKILLed). *)
let reap t w =
  let _, status = restart_eintr (fun () -> Unix.waitpid [] w.pid) in
  dead_worker t w status

(* Deliberate discard of an in-flight attempt (hedge loser, cancelled
   client): clear the assignment FIRST so the reap classifies an idle
   worker (no [Crashed] event — [dead_worker] only reports when a job id
   is attached) and any reply bytes already in the pipe are dropped as
   stray output, then SIGKILL and respawn. *)
let abort t ~id =
  if not t.alive then false
  else
    match Array.find_opt (fun w -> match w.job with Some (jid, _) -> jid = id | None -> false) t.pool
    with
    | None -> false
    | Some w ->
        w.job <- None;
        w.term_sent <- None;
        w.wedged <- false;
        Buffer.clear w.buf;
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap t w);
        true

(* The complete lines in the [n] bytes just read, the first one joined
   to the worker's partial line; the new partial line stays in [w.buf].
   Each line is copied once, straight out of [chunk] when it began in
   this read. *)
let take_lines w chunk n =
  let rec newline i = if i >= n || Bytes.unsafe_get chunk i = '\n' then i else newline (i + 1) in
  let rec split acc start =
    let i = newline start in
    if i >= n then begin
      Buffer.add_subbytes w.buf chunk start (n - start);
      List.rev acc
    end
    else if Buffer.length w.buf = 0 then split (Bytes.sub_string chunk start (i - start) :: acc) (i + 1)
    else begin
      Buffer.add_subbytes w.buf chunk start (i - start);
      let line = Buffer.contents w.buf in
      Buffer.clear w.buf;
      split (line :: acc) (i + 1)
    end
  in
  split [] 0

let handle_readable t w events =
  let chunk = t.chunk in
  match restart_eintr (fun () -> Unix.read w.of_worker chunk 0 (Bytes.length chunk)) with
  | 0 -> begin
      (* EOF: the worker is gone (crash, or self-kill under [kill:N]). *)
      match reap t w with Some e -> e :: events | None -> events
    end
  | exception Unix.Unix_error _ -> begin
      match reap t w with Some e -> e :: events | None -> events
    end
  | n ->
      let prefix = Obs.Trace.pipe_prefix in
      let plen = String.length prefix in
      List.fold_left
        (fun events line ->
          match w.job with
          | None ->
              (* A line with no job in flight: stray output from a worker
                 we already gave up on. Drop it. *)
              events
          | Some (id, _) ->
              if String.starts_with ~prefix line then
                (* Trace traffic does not settle the job: surface it for
                   the supervisor to stitch into its own sink. *)
                Trace { id; pid = w.pid; line = String.sub line plen (String.length line - plen) }
                :: events
              else begin
                (* One job in flight per worker, so this line settles it.
                   The engine decides whether the line parses; the pool
                   only frames. *)
                w.job <- None;
                w.term_sent <- None;
                Completed { id; reply = line } :: events
              end)
        events (take_lines w chunk n)

let enforce_deadlines t events =
  let t_now = now () in
  Array.fold_left
    (fun events w ->
      match w.job, w.term_sent with
      | Some (_, deadline), None when t_now >= deadline ->
          (* First strike: SIGTERM, give it [grace] to die cleanly. *)
          (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ());
          w.term_sent <- Some t_now;
          events
      | Some _, Some at when t_now >= at +. t.cfg.grace ->
          (* Still alive after the grace period (e.g. a [wedge:N] worker
             blocking SIGTERM): SIGKILL cannot be blocked. Outliving the
             grace is what distinguishes a wedge from a plain timeout —
             the quarantine policy in {!Runner} treats them differently. *)
          w.wedged <- true;
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (match reap t w with Some e -> e :: events | None -> events)
      | _ -> events)
    events t.pool

let next_wakeup t ~timeout =
  let t_now = now () in
  Array.fold_left
    (fun acc w ->
      match w.job, w.term_sent with
      | Some (_, deadline), None when deadline < infinity ->
          Float.min acc (Float.max 0.0 (deadline -. t_now))
      | Some _, Some at -> Float.min acc (Float.max 0.0 (at +. t.cfg.grace -. t_now))
      | _ -> acc)
    timeout t.pool

let poll ?(extra = []) ?(extra_write = []) ?(timeout = 1.0) t =
  let events = enforce_deadlines t [] in
  if events <> [] then List.rev events
  else begin
    let fds = extra @ Array.to_list (Array.map (fun w -> w.of_worker) t.pool) in
    let wait =
      let w = next_wakeup t ~timeout in
      if Float.is_finite w then w else -1.0 (* select: negative = block *)
    in
    let readable, writable, _ =
      try restart_eintr (fun () -> Unix.select fds extra_write [] wait)
      with Unix.Unix_error (Unix.EBADF, _, _) -> (fds, extra_write, [])
    in
    let events =
      List.fold_left
        (fun events fd ->
          if List.memq fd extra then Input fd :: events
          else
            match Array.find_opt (fun w -> w.of_worker = fd) t.pool with
            | Some w -> handle_readable t w events
            | None -> events)
        [] readable
    in
    let events = List.fold_left (fun events fd -> Writable fd :: events) events writable in
    let events = enforce_deadlines t events in
    List.rev events
  end

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        (try Unix.close w.to_worker with Unix.Unix_error _ -> ());
        try Unix.close w.of_worker with Unix.Unix_error _ -> ())
      t.pool;
    (* Closing the job pipe makes a healthy worker's input_line hit
       End_of_file and _exit 0; a wedged one needs the hammer. *)
    Array.iter
      (fun w ->
        match restart_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] w.pid) with
        | 0, _ ->
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (restart_eintr (fun () -> Unix.waitpid [] w.pid))
        | _ -> ()
        | exception Unix.Unix_error _ -> ())
      t.pool
  end
