module Proto = Cert.Proto
module Pool = Pool
module Journal = Journal
module Transport = Transport
module Cache = Cache
module Trace_check = Trace_check
open Cert
open Proto
module Ser = Graphdb.Serialize
open Resilience
module Trace = Obs.Trace

module Log = Obs.Log

let now_s () = Unix.gettimeofday ()

(* Env-installed crash plans must look like a real supervisor death — no
   unwinding, no finalizers, just gone. lib/core cannot touch Unix (see
   the rpq_lint unix rule), so the exit behavior is injected here, once,
   at link time. Exit code 70 is EX_SOFTWARE: distinguishable from both a
   clean batch exit and a SIGKILL in the chaos harness's waitpid. The
   flight recorder gets its one chance to publish the black box first —
   [Flight.dump] is atomic and never raises. *)
let () =
  Faults.set_crash_exit (fun site ->
      Obs.Flight.dump ~reason:("crash:" ^ site) ();
      Unix._exit 70)

(* The in-process [Faults.Crash] path (programmatic fault plans, unit
   tests) unwinds instead of exiting: dump at the catch point, then let
   the exception continue to whoever is simulating the crash. *)
let flight_on_crash f =
  try f ()
  with Faults.Crash site as e ->
    Obs.Flight.dump ~reason:("crash:" ^ site) ();
    raise e

(* Supervisor-side telemetry. Counters cover the retry/death policy
   (deterministic under a fixed fault plan), gauges the instantaneous
   load, histograms the queue wait. Worker-side solver metrics do not
   cross the fork boundary — per-job stage timings travel in the reply's
   [stages] block instead. *)
let m_jobs = Obs.Metrics.counter "runner.jobs"
let m_settled = Obs.Metrics.counter "runner.settled"
let m_retries = Obs.Metrics.counter "runner.retries"
let m_deaths_crash = Obs.Metrics.counter "runner.deaths.crash"
let m_deaths_timeout = Obs.Metrics.counter "runner.deaths.timeout"
let m_deaths_malformed = Obs.Metrics.counter "runner.deaths.malformed"
let m_shed = Obs.Metrics.counter "runner.shed"
let m_queue_depth = Obs.Metrics.gauge "runner.queue_depth"
let m_inflight = Obs.Metrics.gauge "runner.inflight"
let m_dispatch_latency = Obs.Metrics.histogram "runner.dispatch_latency_s"

(* Overload-path counters. These carry the Prometheus [_total] suffix in
   their metric names directly (newer convention); the pre-existing
   counter families above keep their unsuffixed names for scrape
   compatibility. *)
let m_poisoned = Obs.Metrics.counter "runner.poisoned_total"
let m_hedges = Obs.Metrics.counter "runner.hedges_total"
let m_hedge_wins = Obs.Metrics.counter "runner.hedge_wins_total"
let m_deadline_exceeded = Obs.Metrics.counter "runner.deadline_exceeded_total"

(* ------------------------------------------------------------------ *)
(* Worker side: run one job to a reply, in this process.               *)
(* ------------------------------------------------------------------ *)

(* A [wedge:N] worker must take the supervisor's SIGKILL-after-grace
   path, so the polite SIGTERM has to be survivable: block it, then stop
   responding. If the supervisor itself dies (it can be SIGKILLed, too)
   nobody is left to deliver our SIGKILL — poll for reparenting to init so
   a wedged orphan exits within a second instead of leaking forever. *)
let wedge_forever () =
  ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm ]);
  while true do
    Unix.sleep 1;
    if Unix.getppid () = 1 then Unix._exit 0
  done

let worker_probe () =
  match Faults.worker_mode () with
  | None -> None
  | Some (`Kill n) ->
      Some (fun steps -> if steps >= n then Unix.kill (Unix.getpid ()) Sys.sigkill)
  | Some (`Wedge n) -> Some (fun steps -> if steps >= n then wedge_forever ())

let spent_steps = function None -> 0 | Some b -> (Budget.spent b).Budget.steps

(* Worker memory ceiling: a Gc alarm (end of each major cycle) flags when
   the major heap crosses the limit, and the budget probe turns the flag
   into [Budget.Exhausted Memory] on the next tick — so an OOM-bound job
   degrades to a certified [Bounded] reply instead of being SIGKILLed by
   the kernel. Set before the pool forks so workers inherit it. *)
let heap_limit_words : int option ref = ref None

let set_max_heap_mb mb =
  heap_limit_words := Option.map (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8)) mb

(* A worker serves many jobs over few languages, so it keeps each query's
   automaton and classification, keyed by the query string: a repeated
   query skips the regex parse and Figure 1's decision procedure. The
   table starts empty and is emptied when it reaches [query_cache_bound]
   entries. Only a classification that returned is kept, so a query that
   does not parse, or whose classification raises, gets the same reply
   every time. *)
let query_cache_bound = 64
let query_cache : (string, Automata.Nfa.t * Classify.t) Hashtbl.t = Hashtbl.create 16
let query_cache_size () = Hashtbl.length query_cache

type query = Cached of Automata.Nfa.t * Classify.t | Parsed of Automata.Regex.t

let lookup_query q =
  match Hashtbl.find_opt query_cache q with
  | Some (lang, cl) -> Some (Cached (lang, cl))
  | None -> Option.map (fun r -> Parsed r) (Automata.Regex.parse_opt q)

let classification q lang = function
  | Cached (_, cl) -> cl
  | Parsed _ ->
      let cl = Trace.stage "classify" (fun () -> Classify.classify lang) in
      if Hashtbl.length query_cache >= query_cache_bound then Hashtbl.reset query_cache;
      Hashtbl.replace query_cache q (lang, cl);
      cl

let run_job_inner (job : job) : reply =
  match Trace.stage "parse" (fun () -> Ser.parse job.db) with
  | Error e -> failed ~id:job.id ~kind:"bad-job" "database: %s" e
  | Ok p -> begin
      match lookup_query job.query with
      | None -> failed ~id:job.id ~kind:"bad-job" "invalid regular expression %S" job.query
      | Some query -> begin
          match
            match job.faults with None -> Ok (Faults.plan ()) | Some s -> Faults.parse s
          with
          | Error e -> failed ~id:job.id ~kind:"bad-job" "faults: %s" e
          | Ok plan ->
              Faults.with_plan plan @@ fun () ->
              let lang =
                match query with
                | Cached (lang, _) -> lang
                | Parsed r -> Trace.stage "parse" (fun () -> Automata.Lang.of_regex r)
              in
              let fault_probe = worker_probe () in
              let heap_flag = ref false in
              let alarm =
                Option.map
                  (fun limit ->
                    Gc.create_alarm (fun () ->
                        if (Gc.quick_stat ()).Gc.heap_words > limit then heap_flag := true))
                  !heap_limit_words
              in
              let probe =
                match (alarm, fault_probe) with
                | None, p -> p
                | Some _, p ->
                    Some
                      (fun steps ->
                        if !heap_flag then raise (Budget.Exhausted Budget.Memory);
                        match p with Some f -> f steps | None -> ())
              in
              let b = job.budget in
              let budget =
                match (b.deadline, b.steps, b.memo_cap, probe) with
                | None, None, None, None -> None
                | _ ->
                    Some
                      (Budget.create ?deadline:b.deadline ?steps:b.steps ?memo_cap:b.memo_cap
                         ?probe ())
              in
              let verdict, cert =
                Fun.protect
                  ~finally:(fun () -> Option.iter Gc.delete_alarm alarm)
                @@ fun () ->
                match
                  Solver.solve_bounded
                    ~classification:(classification job.query lang query)
                    ?budget p.Ser.db lang
                with
                | Solver.Exact r ->
                    ( V_exact
                        {
                          value = r.Solver.value;
                          algorithm = Solver.algorithm_name r.Solver.algorithm;
                          witness = r.Solver.witness;
                        },
                      r.Solver.cert )
                | Solver.Bounded { lower; upper; upper_witness; reason; spent = _; cert } ->
                    ( V_bounded
                        {
                          lower;
                          upper;
                          witness = upper_witness;
                          reason = Budget.exhaustion_name reason;
                        },
                      cert )
                | exception Invalid_argument e ->
                    (V_failed { kind = "bad-job"; message = e; retriable = false }, None)
                | exception Invariant.Internal_error e ->
                    (V_failed { kind = "internal"; message = e; retriable = false }, None)
              in
              {
                id = job.id;
                attempts = 1;
                steps = spent_steps budget;
                wall_s = 0.0;
                stages = [];
                trace = None;
                verdict;
                cert;
              }
        end
    end

(* The whole job runs under one [solve] span (tagged with the query and
   instance size) and a fresh stage table; the per-stage totals become
   the reply's [stages] block, so they survive the pipe back to the
   supervisor. The job's propagated span context, if any, becomes the
   span's parent — in a forked worker that is the supervisor's [job]
   span, so the stitched trace nests solve stages under it — and the
   span's own context rides back in the reply's [trace] field. *)
let run_job_locally (job : job) : reply =
  Trace.with_parent (Option.bind job.trace Trace.ctx_of_string) @@ fun () ->
  let span_ctx = ref None in
  let reply, stages =
    Trace.with_stages (fun () ->
        Trace.with_span
          ~args:
            [
              ("id", Json.Str job.id);
              ("query", Json.Str job.query);
              ("db_bytes", Json.Int (String.length job.db));
            ]
          "solve"
          (fun () ->
            span_ctx := Option.map Trace.ctx_to_string (Trace.current_ctx ());
            run_job_inner job))
  in
  { reply with stages; trace = !span_ctx }

let worker_handler line =
  let reply =
    match job_of_json line with
    | Error e -> failed ~id:"" ~kind:"bad-job" "unparseable job line: %s" e
    | Ok job -> run_job_locally job
  in
  reply_to_json reply

(* ------------------------------------------------------------------ *)
(* Supervisor: retry policy.                                           *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  retries : int;  (** extra attempts after the first *)
  degrade : int;  (** budget divisor applied per retry *)
  queue_cap : int;  (** admission limit for {!serve} *)
  job_timeout : float option;
  grace : float;
  backoff : float;  (** base retry delay, doubled per attempt *)
  journal_sync : Journal.sync;  (** fsync policy for {!run_batch}'s journal *)
  max_heap_mb : int option;  (** worker memory ceiling (Gc-alarm watchdog) *)
  hedge_after : float option;  (** speculative duplicate after this many seconds; [None] = off *)
  poison_k : int;  (** quarantine after this many worker deaths; 0 disables *)
}

let default_config =
  {
    workers = 4;
    retries = 2;
    degrade = 8;
    queue_cap = 64;
    job_timeout = None;
    grace = 0.5;
    backoff = 0.05;
    journal_sync = Journal.Per_job;
    max_heap_mb = None;
    hedge_after = None;
    poison_k = 3;
  }

(* 50k steps is comfortably above anything the polynomial paths tick and
   a fraction of a second of branch and bound: a sane first ceiling for a
   job that crashed with no budget of its own. *)
let default_retry_steps = 50_000

let degrade_budget ~degrade (b : budget_spec) : budget_spec =
  let d = max 2 degrade in
  {
    deadline = Option.map (fun s -> Float.max 0.01 (s /. float_of_int d)) b.deadline;
    steps =
      (match b.steps with
      | Some s -> Some (max 1 (s / d))
      | None -> Some default_retry_steps);
    memo_cap = b.memo_cap;
  }

(* Where degradation bottoms out: one step, and 0.01 s for a job that
   has a deadline. *)
let floor_budget (b : budget_spec) : budget_spec =
  { b with deadline = Option.map (fun _ -> 0.01) b.deadline; steps = Some 1 }

let death_kind = function
  (* A wedge IS a timeout to the client (same remedy: smaller budget);
     the structural distinction only feeds the poison policy below. *)
  | Pool.Timed_out | Pool.Wedged -> "timeout"
  | Pool.Exited _ | Pool.Signaled _ -> "crash"
  | Pool.Malformed _ -> "malformed"

(* Re-verification of a reply's certificate, shared by the journal
   resume path, the result cache, and the hedge gate: an answer is
   trusted iff its certificate re-checks (error replies carry none and
   pass vacuously — there is nothing to trust). *)
let verify_reply (reply : reply) =
  match Cert.Checker.check_reply reply with Ok () -> true | Error _ -> false

(* Deaths that count toward quarantine: the job took a worker down with
   it (crash) or forced a hard kill (wedge). A plain timeout is the
   budget's fault, not sabotage, and a malformed reply left the worker
   alive. *)
let poisonous = function
  | Pool.Exited _ | Pool.Signaled _ | Pool.Wedged -> true
  | Pool.Timed_out | Pool.Malformed _ -> false

type task = {
  job : job;  (** as submitted, with the original budget *)
  origin : string;
      (** the id the settled reply and the journal carry: the job's own,
          or the client's id for a job serve runs under a namespaced id *)
  digest : string;  (** the journal's key for the job; unused without a journal *)
  submitted : float;  (** wall clock at {!submit}, for dispatch latency *)
  span : Trace.handle option;  (** the supervisor-side [job] span: submit -> settle *)
  deadline_abs : float;  (** end-to-end client deadline, absolute; [infinity] = none *)
  mutable attempts : int;  (** primary dispatches so far (hedges don't count) *)
  mutable cur_budget : budget_spec;
  mutable first_dispatch : float;  (** wall clock, for [wall_s] *)
  mutable not_before : float;  (** backoff gate *)
  mutable last_dispatch : float;  (** wall clock of the current attempt's dispatch *)
  mutable wire : string;  (** the current attempt's payload, reused verbatim by a hedge *)
  mutable hedged : bool;  (** a speculative duplicate was launched for this attempt *)
  mutable primary_up : bool;  (** the primary attempt is on a worker *)
  mutable hedge_up : bool;  (** the hedge attempt is on a worker *)
  mutable fallback : reply option;
      (** a racing attempt's reply whose certificate failed the hedge
          gate: kept as last resort in case the other attempt dies *)
  mutable deaths : int;  (** poisonous primary-attempt worker deaths so far *)
}

(* Hedge attempts run under a reserved id prefix on the pool (the NUL
   byte keeps it out of any sane client id space; serve's internal ids
   all start with 'c'), carrying the primary's payload verbatim — so the
   worker-side computation, faults included, is byte-identical. *)
let hedge_prefix = "\x00hedge:"
let hedge_tag id = hedge_prefix ^ id

let hedge_untag id =
  if String.starts_with ~prefix:hedge_prefix id then
    Some (String.sub id (String.length hedge_prefix) (String.length id - String.length hedge_prefix))
  else None

(* A worker span streamed as ["open"] but whose closing event never
   arrived — the raw material for synthesizing [interrupted] spans when
   the worker dies mid-job. *)
type wspan = {
  w_sid : string;
  w_name : string;
  w_ts : float;  (* relative to the shared trace epoch *)
  w_depth : int;
  w_pid : int;
  w_tid : string;
  w_psid : string option;
}

(* The engine owns the journal protocol: a [Started] record at a task's
   first dispatch, before [Pool.assign]; a [Done] record when it settles,
   after settle's bookkeeping and before the driver sees the reply. *)
type engine = {
  cfg : config;
  pool : Pool.t;
  journal : Journal.t option;
  pending : task Queue.t;
  mutable delayed : task list;
  inflight : (string, task) Hashtbl.t;
  wopen : (string, wspan list) Hashtbl.t;  (** job id -> worker spans still open *)
  emit : engine -> task -> reply -> string -> unit;
      (** a settled task, its reply under the task's [origin] id, and that
          reply's line (see {!settle}) *)
}

let engine_load e = Queue.length e.pending + List.length e.delayed + Hashtbl.length e.inflight

let update_gauges e =
  Obs.Metrics.set m_queue_depth (float_of_int (Queue.length e.pending + List.length e.delayed));
  Obs.Metrics.set m_inflight (float_of_int (Hashtbl.length e.inflight))

(* Callers count [runner.jobs] where they accept a job: [run_batch] at
   submission, the serve loop at admission — so a stats line sees the job
   on the line above it even while that job waits for a worker. *)
let submit ?deadline_abs ?origin ?(digest = "") e (job : job) =
  (* The supervisor's per-job span opens at submission and closes at
     settle, spanning queue wait, every dispatch and every retry. Its
     parent is the job's propagated context (a serve [request] span, or
     a remote client's span); its own identity is what the worker's
     [solve] span will nest under. *)
  let span =
    Trace.open_span
      ?parent:(Option.bind job.trace Trace.ctx_of_string)
      ~args:[ ("id", Json.Str job.id) ]
      "job"
  in
  let submitted = now_s () in
  (* The end-to-end clock starts at the earliest point the deadline is
     known: the serve layer passes the admission-time absolute deadline
     so queue time spent there is charged; a batch submission starts it
     here. *)
  let deadline_abs =
    match deadline_abs with
    | Some d -> d
    | None -> (
        match job.deadline_ms with
        | Some ms -> submitted +. (float_of_int ms /. 1000.0)
        | None -> infinity)
  in
  Queue.add
    {
      job;
      origin = Option.value origin ~default:job.id;
      digest;
      submitted;
      span;
      deadline_abs;
      attempts = 0;
      cur_budget = job.budget;
      first_dispatch = 0.0;
      not_before = 0.0;
      last_dispatch = 0.0;
      wire = "";
      hedged = false;
      primary_up = false;
      hedge_up = false;
      fallback = None;
      deaths = 0;
    }
    e.pending

let journal_done e ~id ~digest line =
  Option.iter (fun jl -> Journal.append_done jl ~id ~digest ~reply_json:line) e.journal

(* A settled reply has one line, built here once: the worker's bytes with
   the head restamped when [worker] (the worker's line and its decode,
   [reply]) is given, else the supervisor's own reply encoded. [worker] is
   absent for replies the supervisor made (deadline, poison, retry
   exhaustion) and for a hedge's fallback, whose line is not kept. The
   journal's [Done] record and the driver share that line. *)
let settle ?worker e t reply =
  Hashtbl.remove e.inflight t.job.id;
  Hashtbl.remove e.wopen t.job.id;
  Hashtbl.remove e.wopen (hedge_tag t.job.id);
  Obs.Metrics.incr m_settled;
  update_gauges e;
  Trace.instant
    ~args:
      [ ("id", Json.Str t.job.id); ("outcome", Json.Str (verdict_name reply.verdict)) ]
    "settle";
  Option.iter
    (fun h ->
      Trace.close_span
        ~args:
          [
            ("outcome", Json.Str (verdict_name reply.verdict));
            ("attempts", Json.Int t.attempts);
          ]
        h)
    t.span;
  let reply =
    { reply with id = t.origin; attempts = t.attempts; wall_s = now_s () -. t.first_dispatch }
  in
  let line =
    match worker with
    | Some (wline, w) -> restamp wline w ~id:reply.id ~attempts:reply.attempts ~wall_s:reply.wall_s
    | None -> reply_to_json reply
  in
  journal_done e ~id:reply.id ~digest:t.digest line;
  e.emit e t reply line

(* Seconds left on the task's end-to-end deadline, clamped into the
   worker budget: the solver's wall-clock deadline never exceeds the
   client's remaining wall budget, so queue time already spent is not
   spent again on the worker. *)
let remaining_wall t ~t_now =
  if t.deadline_abs = infinity then None
  else Some (Float.max 0.01 (t.deadline_abs -. t_now))

let clamp_budget (b : budget_spec) = function
  | None -> b
  | Some rem ->
      {
        b with
        deadline = Some (match b.deadline with None -> rem | Some d -> Float.min d rem);
      }

(* The pool's wall deadline backstops the solver's budget deadline; give
   it a hair of slack so a budget-exhausted worker wins the race to
   write its certified Bounded reply before the SIGTERM lands. *)
let pool_timeout rem = Option.map (fun r -> r +. 0.05) rem

(* Launch speculative duplicates of slow in-flight attempts, but only
   with capacity to spare: an idle worker and an empty pending queue —
   queued work always outranks a hedge. One hedge per attempt. *)
let hedge_ready e =
  match e.cfg.hedge_after with
  | None -> ()
  | Some after ->
      if Pool.idle_count e.pool > 0 && Queue.is_empty e.pending then begin
        let t_now = now_s () in
        Hashtbl.iter
          (fun _ t ->
            if
              t.primary_up && (not t.hedged)
              && t_now -. t.last_dispatch >= after
              && Pool.idle_count e.pool > 0
            then begin
              t.hedged <- true;
              t.hedge_up <- true;
              Obs.Metrics.incr m_hedges;
              Trace.instant ~args:[ ("id", Json.Str t.job.id) ] "hedge";
              Log.info "hedge"
                [ ("id", Json.Str t.job.id); ("attempt", Json.Int t.attempts) ];
              Pool.assign e.pool ~id:(hedge_tag t.job.id)
                ?timeout:(pool_timeout (remaining_wall t ~t_now))
                ~payload:t.wire ()
            end)
          e.inflight
      end

let dispatch_ready e =
  (* Promote delayed tasks whose backoff expired... *)
  let t_now = now_s () in
  let due, still = List.partition (fun t -> t.not_before <= t_now) e.delayed in
  e.delayed <- still;
  List.iter (fun t -> Queue.add t e.pending) due;
  (* ...then feed idle workers. *)
  let idle = ref (Pool.idle_count e.pool) in
  while !idle > 0 && not (Queue.is_empty e.pending) do
    let t = Queue.pop e.pending in
    let t_now = now_s () in
    if t.deadline_abs <= t_now then begin
      (* Expired while queued: shed without burning a worker on an
         answer nobody is waiting for. Retriable — the client may come
         back with a fresh deadline. *)
      Obs.Metrics.incr m_deadline_exceeded;
      Trace.instant
        ~args:[ ("id", Json.Str t.job.id); ("reason", Json.Str "deadline_exceeded") ]
        "shed";
      Log.warn "deadline-exceeded"
        [
          ("id", Json.Str t.job.id);
          ("late_s", Json.Float (t_now -. t.deadline_abs));
        ];
      if t.first_dispatch = 0.0 then t.first_dispatch <- t.submitted;
      settle e t
        (failed ~retriable:true ~id:t.job.id ~kind:"deadline_exceeded"
           "deadline expired in queue before dispatch")
    end
    else begin
      if t.attempts = 0 then begin
        t.first_dispatch <- t_now;
        Obs.Metrics.observe m_dispatch_latency (t.first_dispatch -. t.submitted);
        Option.iter
          (fun jl -> Journal.append jl (Journal.Started { id = t.origin; digest = t.digest }))
          e.journal
      end;
      t.attempts <- t.attempts + 1;
      t.last_dispatch <- t_now;
      t.hedged <- false;
      t.primary_up <- true;
      t.hedge_up <- false;
      t.fallback <- None;
      Hashtbl.replace e.inflight t.job.id t;
      Trace.instant ~args:[ ("id", Json.Str t.job.id) ] "dispatch";
      (* The worker parents its spans under this task's supervisor span;
         an untraced supervisor forwards whatever context the job came in
         with, so propagation survives un-instrumented hops. *)
      let trace =
        match t.span with
        | Some h -> Some (Trace.ctx_to_string (Trace.handle_ctx h))
        | None -> t.job.trace
      in
      let rem = remaining_wall t ~t_now in
      let payload = job_to_wire_json { t.job with budget = clamp_budget t.cur_budget rem; trace } in
      t.wire <- payload;
      Pool.assign e.pool ~id:t.job.id ?timeout:(pool_timeout rem) ~payload ();
      decr idle
    end
  done;
  hedge_ready e;
  update_gauges e

let death_counter = function
  | Pool.Timed_out | Pool.Wedged -> m_deaths_timeout
  | Pool.Exited _ | Pool.Signaled _ -> m_deaths_crash
  | Pool.Malformed _ -> m_deaths_malformed

let log_death ?(hedge = false) t death =
  Trace.instant
    ~args:[ ("id", Json.Str t.job.id); ("death", Json.Str (death_kind death)) ]
    "worker-death";
  Log.warn "worker-death"
    ([
       ("id", Json.Str t.job.id);
       ("death", Json.Str (Pool.death_to_string death));
       ("attempt", Json.Int t.attempts);
     ]
    @ if hedge then [ ("hedge", Json.Bool true) ] else [])

(* Both attempts of the current round are down: quarantine, give up, or
   degrade-and-retry. Quarantine preempts the retry budget — a job that
   keeps taking workers down with it gets no more of them, however many
   retries it has left — but only once degradation is spent: the attempt
   that could be the K-th death runs at the floor budget, so a job whose
   crash a small enough budget preempts settles as Bounded instead. *)
let retry_or_fail e t death =
  Obs.Metrics.incr (death_counter death);
  log_death t death;
  if e.cfg.poison_k > 0 && t.deaths >= e.cfg.poison_k then begin
    Obs.Metrics.incr m_poisoned;
    Trace.instant
      ~args:[ ("id", Json.Str t.job.id); ("deaths", Json.Int t.deaths) ]
      "poison";
    Log.error "poison"
      [
        ("id", Json.Str t.job.id);
        ("deaths", Json.Int t.deaths);
        ("death", Json.Str (Pool.death_to_string death));
      ];
    Obs.Flight.note
      (Json.Obj
         [
           ("poison", Json.Str t.job.id);
           ("deaths", Json.Int t.deaths);
           ("death", Json.Str (Pool.death_to_string death));
         ]);
    settle e t
      (failed ~id:t.job.id ~kind:"poison" "quarantined after killing %d workers (%s)" t.deaths
         (Pool.death_to_string death))
  end
  else if t.attempts > e.cfg.retries then
    settle e t
      (failed ~id:t.job.id ~kind:(death_kind death) "gave up after %d attempts: %s" t.attempts
         (Pool.death_to_string death))
  else begin
    Hashtbl.remove e.inflight t.job.id;
    Hashtbl.remove e.wopen t.job.id;
    Hashtbl.remove e.wopen (hedge_tag t.job.id);
    Obs.Metrics.incr m_retries;
    Log.info "retry"
      [ ("id", Json.Str t.job.id); ("attempt", Json.Int (t.attempts + 1)) ];
    (* Shrink the budget so whatever made the worker die (a fault tick, a
       runaway search) is preempted by exhaustion on a later attempt and
       the job settles as Bounded instead of failing outright. *)
    t.cur_budget <-
      (if e.cfg.poison_k > 0 && t.deaths + 1 >= e.cfg.poison_k then floor_budget t.cur_budget
       else degrade_budget ~degrade:e.cfg.degrade t.cur_budget);
    t.not_before <-
      now_s () +. (e.cfg.backoff *. float_of_int (1 lsl min 16 (t.attempts - 1)));
    e.delayed <- t :: e.delayed
  end

(* Resolve a pool event id to its task; hedge attempts resolve to the
   primary's task with [is_hedge] set. *)
let task_of_event e id =
  match Hashtbl.find_opt e.inflight id with
  | Some t -> Some (t, false)
  | None -> (
      match hedge_untag id with
      | Some base -> (
          match Hashtbl.find_opt e.inflight base with
          | Some t -> Some (t, true)
          | None -> None)
      | None -> None (* stray reply for a job we already settled *))

(* ---- worker trace stitching ---- *)

(* Args on re-emitted worker events keep only the scalar fields the
   worker attached; identity/position fields were already lifted. *)
let structural_fields = [ "ev"; "name"; "ts"; "dur"; "depth"; "pid"; "tid"; "sid"; "psid" ]

let event_args obj =
  match obj with
  | Json.Obj fields -> List.filter (fun (k, _) -> not (List.mem k structural_fields)) fields
  | _ -> []

(* One line from a worker's pipe sink. ["open"] records are remembered
   (per job) so that spans a killed worker never closed can be
   synthesized; ["span"]/["instant"] records are re-emitted into the
   supervisor's sink; ["meta"] is dropped — the epoch is shared through
   fork, so worker timestamps are already on the supervisor's axis. *)
let handle_worker_trace e ~id ~pid line =
  match Json.parse line with
  | Error _ -> () (* torn trace line from a dying worker: not worth a retry *)
  | Ok obj -> begin
      let str k = Option.bind (Json.member k obj) Json.to_str_opt in
      let num k = Option.bind (Json.member k obj) Json.to_float_opt in
      let int k = Option.bind (Json.member k obj) Json.to_int_opt in
      match str "ev" with
      | Some "open" -> begin
          match (str "sid", str "name", num "ts") with
          | Some w_sid, Some w_name, Some w_ts ->
              let w =
                {
                  w_sid;
                  w_name;
                  w_ts;
                  w_depth = Option.value ~default:0 (int "depth");
                  w_pid = Option.value ~default:pid (int "pid");
                  w_tid = Option.value ~default:"" (str "tid");
                  w_psid = str "psid";
                }
              in
              let prev = Option.value ~default:[] (Hashtbl.find_opt e.wopen id) in
              Hashtbl.replace e.wopen id (w :: prev)
          | _ -> ()
        end
      | Some "span" -> begin
          (* The span closed normally: forget its open record. *)
          (match (Hashtbl.find_opt e.wopen id, str "sid") with
          | Some ws, Some sid ->
              Hashtbl.replace e.wopen id (List.filter (fun w -> w.w_sid <> sid) ws)
          | _ -> ());
          match (str "name", num "ts", num "dur") with
          | Some name, Some ts, Some dur ->
              Trace.emit_raw_span ~args:(event_args obj) ?tid:(str "tid") ?sid:(str "sid")
                ?psid:(str "psid") ~name ~ts ~dur
                ~depth:(Option.value ~default:0 (int "depth"))
                ~pid:(Option.value ~default:pid (int "pid"))
                ()
          | _ -> ()
        end
      | Some "instant" -> begin
          match (str "name", num "ts") with
          | Some name, Some ts ->
              Trace.emit_raw_instant ~args:(event_args obj) ?tid:(str "tid") ?sid:(str "sid")
                ?psid:(str "psid") ~name ~ts
                ~depth:(Option.value ~default:0 (int "depth"))
                ~pid:(Option.value ~default:pid (int "pid"))
                ()
          | _ -> ()
        end
      | _ -> ()
    end

(* The worker died with spans still open: emit each as a span ending at
   the moment the death was observed, tagged [interrupted] — partial
   timing is better than a hole in the trace, and the synthesized stop
   time keeps it inside the supervisor's still-open job span. An
   [outcome] names deliberate interruptions ("hedged_loser",
   "cancelled") so a trace reader can tell a kill we chose from a death
   we suffered. *)
let close_interrupted_spans ?outcome e id =
  (match (Hashtbl.find_opt e.wopen id, Trace.epoch ()) with
  | Some ws, Some t0 ->
      let now_rel = now_s () -. t0 in
      let args =
        ("interrupted", Json.Bool true)
        :: (match outcome with None -> [] | Some o -> [ ("outcome", Json.Str o) ])
      in
      List.iter
        (fun w ->
          Trace.emit_raw_span ~args ~tid:w.w_tid ~sid:w.w_sid ?psid:w.w_psid ~name:w.w_name
            ~ts:w.w_ts
            ~dur:(Float.max 0.0 (now_rel -. w.w_ts))
            ~depth:w.w_depth ~pid:w.w_pid ())
        ws
  | _ -> ());
  Hashtbl.remove e.wopen id

(* A settled winner's racing partner is killed without an event; its
   open worker spans close tagged ["hedged_loser"]. *)
let kill_loser e t ~loser_is_hedge =
  let loser = if loser_is_hedge then hedge_tag t.job.id else t.job.id in
  ignore (Pool.abort e.pool ~id:loser);
  if loser_is_hedge then t.hedge_up <- false else t.primary_up <- false;
  Trace.instant
    ~args:
      [ ("id", Json.Str t.job.id); ("loser", Json.Str (if loser_is_hedge then "hedge" else "primary")) ]
    "hedged-loser";
  close_interrupted_spans ~outcome:"hedged_loser" e loser

let handle_event e = function
  | Pool.Input _ | Pool.Writable _ -> ()
  | Pool.Trace { id; pid; line } -> handle_worker_trace e ~id ~pid line
  | Pool.Completed { id; reply = line } -> begin
      match task_of_event e id with
      | None -> ()
      | Some (t, is_hedge) -> begin
          if is_hedge then t.hedge_up <- false else t.primary_up <- false;
          let other_up = if is_hedge then t.primary_up else t.hedge_up in
          match reply_of_json line with
          | Ok r ->
              if other_up then begin
                (* Two attempts raced and this one replied first: the
                   certificate decides. A reply that re-checks settles
                   the job and the loser is killed; one that does not is
                   kept only as a fallback — maybe the slower attempt
                   does better. (Error replies carry no certificate and
                   pass the gate trivially: both attempts failing
                   identically must settle exactly like an unhedged
                   failure.) *)
                if verify_reply r then begin
                  kill_loser e t ~loser_is_hedge:(not is_hedge);
                  if is_hedge then Obs.Metrics.incr m_hedge_wins;
                  settle ~worker:(line, r) e t r
                end
                else begin
                  Log.warn "hedge-cert-reject"
                    [
                      ("id", Json.Str t.job.id);
                      ("hedge", Json.Bool is_hedge);
                    ];
                  t.fallback <- Some r
                end
              end
              else begin
                (* No race left: settle ungated, as an unhedged run
                   would. If the primary already replied and was stashed
                   (certificate rejection), prefer its reply — that is
                   the one an unhedged run would have settled. *)
                if is_hedge then Obs.Metrics.incr m_hedge_wins;
                match t.fallback with
                | Some f when is_hedge -> settle e t f
                | _ -> settle ~worker:(line, r) e t r
              end
          | Error msg ->
              Log.error "malformed-reply"
                [ ("id", Json.Str id); ("error", Json.Str msg) ];
              if other_up then
                (* The racing attempt may still settle the job; this
                   malformed attempt is simply out of the race. *)
                Obs.Metrics.incr m_deaths_malformed
              else begin
                match t.fallback with
                | Some r -> settle e t r
                | None -> retry_or_fail e t (Pool.Malformed (line ^ " (" ^ msg ^ ")"))
              end
        end
    end
  | Pool.Crashed { id; death } -> begin
      close_interrupted_spans e id;
      match task_of_event e id with
      | None -> ()
      | Some (t, is_hedge) -> begin
          if is_hedge then t.hedge_up <- false else t.primary_up <- false;
          (* Quarantine counts primary-attempt deaths only: a hedged
             round kills at most one extra worker, and counting it would
             make a hedged run quarantine earlier than the identical
             unhedged run. *)
          if (not is_hedge) && poisonous death then t.deaths <- t.deaths + 1;
          let other_up = if is_hedge then t.primary_up else t.hedge_up in
          if other_up then begin
            (* The race partner is still running — no retry yet, just
               account for the death. *)
            Obs.Metrics.incr (death_counter death);
            log_death ~hedge:is_hedge t death
          end
          else
            match t.fallback with
            | Some r ->
                (* The partner already replied (certificate-rejected);
                   nothing better is coming. *)
                Obs.Metrics.incr (death_counter death);
                log_death ~hedge:is_hedge t death;
                settle e t r
            | None -> retry_or_fail e t death
        end
    end

(* Abandon an in-flight task nobody will read (its client vanished, or it
   outlived a drain's grace): kill every running attempt without
   generating crash events, close its spans, and forget it — no reply is
   emitted and nothing is journaled.
   The freed workers go back to the idle set immediately. *)
let abort_task e t =
  if t.primary_up then ignore (Pool.abort e.pool ~id:t.job.id);
  if t.hedge_up then ignore (Pool.abort e.pool ~id:(hedge_tag t.job.id));
  t.primary_up <- false;
  t.hedge_up <- false;
  close_interrupted_spans ~outcome:"cancelled" e t.job.id;
  close_interrupted_spans ~outcome:"cancelled" e (hedge_tag t.job.id);
  Hashtbl.remove e.inflight t.job.id;
  Option.iter
    (fun h -> Trace.close_span ~args:[ ("outcome", Json.Str "cancelled") ] h)
    t.span;
  update_gauges e

(* The poll timeout must wake us for the nearest backoff expiry (else a
   lone delayed task waits out the full default timeout), for a queued
   task's approaching deadline, and for the nearest hedge trigger. *)
let engine_timeout e =
  let t_now = now_s () in
  let acc =
    List.fold_left
      (fun acc t -> Float.min acc (Float.max 0.005 (t.not_before -. t_now)))
      0.5 e.delayed
  in
  let acc =
    Queue.fold
      (fun acc t ->
        if t.deadline_abs = infinity then acc
        else Float.min acc (Float.max 0.005 (t.deadline_abs -. t_now)))
      acc e.pending
  in
  match e.cfg.hedge_after with
  | None -> acc
  | Some after ->
      Hashtbl.fold
        (fun _ t acc ->
          if t.hedged || not t.primary_up then acc
          else Float.min acc (Float.max 0.005 (t.last_dispatch +. after -. t_now)))
        e.inflight acc

let create_engine ?(handler = worker_handler) ?journal cfg ~emit =
  if cfg.retries < 0 then invalid_arg "Runner: negative retries";
  if cfg.queue_cap < 1 then invalid_arg "Runner: queue cap must be at least 1";
  (match cfg.max_heap_mb with
  | Some mb when mb < 1 -> invalid_arg "Runner: max heap must be at least 1 MB"
  | _ -> ());
  (* Before the fork: the workers inherit the ceiling with the pool. *)
  set_max_heap_mb cfg.max_heap_mb;
  let pool =
    Pool.create
      { Pool.workers = cfg.workers; job_timeout = cfg.job_timeout; grace = cfg.grace }
      ~handler
  in
  {
    cfg;
    pool;
    journal;
    pending = Queue.create ();
    delayed = [];
    inflight = Hashtbl.create 64;
    wopen = Hashtbl.create 16;
    emit;
  }

let drain e =
  while engine_load e > 0 do
    dispatch_ready e;
    if engine_load e > 0 then
      List.iter (handle_event e) (Pool.poll ~timeout:(engine_timeout e) e.pool)
  done

(* ------------------------------------------------------------------ *)
(* Batch runs with journal-based crash recovery.                       *)
(* ------------------------------------------------------------------ *)

type batch_stats = { ran : int; resumed : int; failures : int }

let run_batch ?journal cfg (jobs : job list) : (reply * string) list * batch_stats =
  flight_on_crash @@ fun () ->
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (j : job) ->
      if Hashtbl.mem ids j.id then
        invalid_arg (Printf.sprintf "Runner.run_batch: duplicate job id %S" j.id);
      Hashtbl.add ids j.id ())
    jobs;
  let jnl, recorded =
    match journal with
    | None -> (None, Hashtbl.create 0)
    | Some path -> begin
        match Journal.open_load ~sync:cfg.journal_sync path with
        | Ok (j, rep) -> (Some j, rep.Journal.settled)
        | Error msg -> invalid_arg (Printf.sprintf "Runner.run_batch: %s" msg)
      end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close jnl)
    (fun () ->
      let results : (string, reply * string) Hashtbl.t = Hashtbl.create 64 in
      let resumed = ref 0 in
      let todo =
        List.filter_map
          (fun (j : job) ->
            (* A job's journal digest is computed once, and only for a
               journal. *)
            let digest = match jnl with None -> "" | Some _ -> Journal.job_digest j in
            match Hashtbl.find_opt recorded j.id with
            | Some { Journal.digest = d; reply; line }
              when d = digest && (Check.level () = Check.Off || verify_reply reply) ->
                Hashtbl.replace results j.id (reply, line);
                incr resumed;
                None
            | _ -> Some (j, digest))
          jobs
      in
      let emit _ _ (r : reply) line = Hashtbl.replace results r.id (r, line) in
      let e = create_engine ?journal:jnl cfg ~emit in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown e.pool)
        (fun () ->
          List.iter
            (fun (j, digest) ->
              Obs.Metrics.incr m_jobs;
              submit ~digest e j)
            todo;
          drain e);
      let settled =
        List.map
          (fun (j : job) ->
            match Hashtbl.find_opt results j.id with
            | Some s -> s
            | None ->
                Invariant.internal_error "Runner.run_batch: job %s never settled" j.id)
          jobs
      in
      let failures =
        List.length
          (List.filter (fun (r, _) -> match r.verdict with V_failed _ -> true | _ -> false) settled)
      in
      (settled, { ran = List.length todo; resumed = !resumed; failures }))

(* ------------------------------------------------------------------ *)
(* Serve: many clients, one engine — per-client fairness, admission    *)
(* control, and the certificate-gated result cache.                    *)
(* ------------------------------------------------------------------ *)

(* A [{"stats": true}] line (optionally carrying an [id]) is a control
   request, not a job: it answers immediately with the supervisor's
   metrics snapshot and consumes no queue slot. *)
let is_stats_request v =
  match Json.member "stats" v with Some (Json.Bool true) -> true | _ -> false

let stats_line id =
  Json.to_string (Json.Obj [ ("id", Json.Str id); ("stats", Obs.Metrics.to_json ()) ])

let m_serve_clients = Obs.Metrics.gauge "serve.clients"
let m_serve_queued = Obs.Metrics.gauge "serve.queued"
let m_serve_inflight = Obs.Metrics.gauge "serve.inflight"
let m_serve_draining = Obs.Metrics.gauge "serve.draining"
let m_serve_cancelled = Obs.Metrics.counter "serve.cancelled"

(* Per-client fairness, factored out of the serve loop so the policy is
   testable without sockets: one FIFO per (priority class, client), a
   round-robin rotation across clients within each class, a weighted-fair
   cycle across classes, and a per-client inflight cap (global across
   classes) so one chatty client cannot monopolize the worker pool. *)
module Admission = struct
  let classes = 3 (* batch 0 | normal 1 | interactive 2, as Proto.priority_class *)

  (* The deterministic weighted-fair dequeue cycle: interactive 4,
     normal 2, batch 1 — interleaved so no class waits out a burst of a
     higher one. When the scheduled class is empty the highest non-empty
     class goes instead, so the cycle never idles a worker. *)
  let cycle = [| 2; 1; 2; 0; 2; 1; 2 |]

  type 'a t = {
    cap : int;
    queues : (int * int, 'a Queue.t) Hashtbl.t;  (** (class, client) -> FIFO *)
    order : int list array;  (** per-class client rotation *)
    adm_inflight : (int, int) Hashtbl.t;
    mutable seq : int;  (** position in the weighted cycle *)
  }

  let create ~client_inflight =
    if client_inflight < 1 then
      invalid_arg "Runner.Admission.create: per-client inflight cap must be at least 1";
    {
      cap = client_inflight;
      queues = Hashtbl.create 16;
      order = Array.make classes [];
      adm_inflight = Hashtbl.create 16;
      seq = 0;
    }

  let enqueue ?(prio = 1) t cid x =
    let k = max 0 (min (classes - 1) prio) in
    match Hashtbl.find_opt t.queues (k, cid) with
    | Some q -> Queue.add x q
    | None ->
        let q = Queue.create () in
        Queue.add x q;
        Hashtbl.replace t.queues (k, cid) q;
        t.order.(k) <- t.order.(k) @ [ cid ]

  let queued_for t cid =
    let n = ref 0 in
    for k = 0 to classes - 1 do
      match Hashtbl.find_opt t.queues (k, cid) with
      | Some q -> n := !n + Queue.length q
      | None -> ()
    done;
    !n

  let queued t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.queues 0

  let inflight_for t cid =
    Option.value ~default:0 (Hashtbl.find_opt t.adm_inflight cid)

  let inflight t = Hashtbl.fold (fun _ n acc -> acc + n) t.adm_inflight 0

  (* Round-robin under the cap, within one class: the first client in
     rotation with work and headroom wins and moves to the back; a
     client skipped for lack of headroom keeps its place, so it is first
     in line once one of its jobs settles. *)
  let pop_class t k =
    let rec scan skipped = function
      | [] -> None
      | cid :: rest -> begin
          match Hashtbl.find_opt t.queues (k, cid) with
          | Some q when (not (Queue.is_empty q)) && inflight_for t cid < t.cap ->
              let x = Queue.pop q in
              if Queue.is_empty q then begin
                Hashtbl.remove t.queues (k, cid);
                t.order.(k) <- List.rev_append skipped rest
              end
              else t.order.(k) <- List.rev_append skipped rest @ [ cid ];
              Hashtbl.replace t.adm_inflight cid (inflight_for t cid + 1);
              Some (cid, x)
          | Some _ -> scan (cid :: skipped) rest
          | None ->
              (* Rotation entry with no queue: drained elsewhere; skip. *)
              scan skipped rest
        end
    in
    scan [] t.order.(k)

  let next t =
    let scheduled = cycle.(t.seq mod Array.length cycle) in
    let rec try_classes = function
      | [] -> None
      | k :: ks -> ( match pop_class t k with Some r -> Some r | None -> try_classes ks)
    in
    match try_classes (scheduled :: List.filter (fun k -> k <> scheduled) [ 2; 1; 0 ]) with
    | Some r ->
        t.seq <- t.seq + 1;
        Some r
    | None -> None

  (* Evict the oldest queued item of the lowest class strictly below
     [below] — priority-aware shedding at the admission cap: an
     interactive arrival against a full queue bumps a queued batch job
     rather than being turned away. Returns the victim and its client. *)
  let steal_lowest t ~below =
    let rec try_k k =
      if k >= below || k >= classes then None
      else
        match t.order.(k) with
        | [] -> try_k (k + 1)
        | cid :: rest -> begin
            match Hashtbl.find_opt t.queues (k, cid) with
            | Some q when not (Queue.is_empty q) ->
                let x = Queue.pop q in
                if Queue.is_empty q then begin
                  Hashtbl.remove t.queues (k, cid);
                  t.order.(k) <- rest
                end;
                Some (cid, x)
            | _ ->
                t.order.(k) <- rest;
                try_k k
          end
    in
    try_k 0

  let settled t cid =
    let n = inflight_for t cid in
    if n <= 1 then Hashtbl.remove t.adm_inflight cid
    else Hashtbl.replace t.adm_inflight cid (n - 1)

  let cancel t cid =
    let xs = ref [] in
    for k = classes - 1 downto 0 do
      (match Hashtbl.find_opt t.queues (k, cid) with
      | Some q -> xs := List.of_seq (Queue.to_seq q) @ !xs
      | None -> ());
      Hashtbl.remove t.queues (k, cid);
      t.order.(k) <- List.filter (fun c -> c <> cid) t.order.(k)
    done;
    !xs
end

type serve_config = {
  base : config;
  listen : string option;
  tcp : int option;
  cache_entries : int;
  client_inflight : int;
  drain_grace : float;
  write_timeout : float;
  serve_journal : string option;
  brownout_after : float option;
      (** queue pressure sustained this long browns the service out:
          batch arrivals are shed and low-priority budgets shrink.
          [None] = off. *)
}

let default_serve_config =
  {
    base = default_config;
    listen = None;
    tcp = None;
    cache_entries = 256;
    client_inflight = 8;
    drain_grace = 5.0;
    write_timeout = 30.0;
    serve_journal = None;
    brownout_after = None;
  }

let m_brownout = Obs.Metrics.gauge "serve.brownout"
let m_brownout_shed = Obs.Metrics.counter "serve.brownout_shed_total"
let m_brownout_degraded = Obs.Metrics.counter "serve.brownout_degraded_total"

(* The engine's inflight table is keyed by job id, but two clients may
   use the same id concurrently — so jobs run under a namespaced
   internal id and the request table maps back to the client and its
   original id. Journal and cache always see original ids and the
   canonical (id-blind) digest, which is what lets a resubmission from
   any client hit the cache. *)
let internal_id cid id = Printf.sprintf "c%d:%s" cid id

(* An admitted job, from admission until it leaves the server through
   [release]. The request span opens at admission and closes at release:
   the serve-side hop of the stitched trace, parent of the engine's [job]
   span. *)
type request = {
  cid : int;  (** the owning client *)
  orig : string;  (** the client's job id *)
  digest : string;  (** canonical digest: the cache key, and the journal's *)
  rjob : job;  (** as the engine runs it: the internal id, the span context *)
  rspan : Trace.handle option;
  deadline : float option;
      (** absolute end-to-end deadline, fixed at admission so time queued
          in the per-client FIFOs is charged to the client's budget *)
  mutable slot : bool;  (** off the admission queue: holds an inflight slot *)
}

type server = {
  scfg : serve_config;
  tr : Transport.t;
  adm : request Admission.t;
  cache : Cache.t;
  requests : (string, request) Hashtbl.t;  (** internal id -> request *)
  stdio_cid : int option;
  mutable draining : bool;  (** set by SIGTERM/SIGINT *)
  mutable brownout : bool;
  mutable pressure_since : float option;
}

(* What a leaving request's client reads: its settled line, a retriable
   error reply of a kind, or nothing. *)
type answer = Deliver of string | Retry of string * string | Silent

let total_load srv e = Admission.queued srv.adm + engine_load e

(* ---- admission and brownout ---- *)

(* Brownout watchdog: queue pressure (half the admission cap or more)
   sustained for [brownout_after] seconds flips the service into
   brownout; the next pressure-free observation clears both. *)
let update_brownout srv =
  match srv.scfg.brownout_after with
  | None -> ()
  | Some after ->
      let t_now = now_s () in
      let queued = Admission.queued srv.adm in
      (match (queued >= max 1 (srv.scfg.base.queue_cap / 2), srv.pressure_since) with
      | true, None -> srv.pressure_since <- Some t_now
      | false, _ -> srv.pressure_since <- None
      | true, Some _ -> ());
      let active =
        match srv.pressure_since with Some s -> t_now -. s >= after | None -> false
      in
      if active <> srv.brownout then begin
        srv.brownout <- active;
        Obs.Metrics.set m_brownout (if active then 1.0 else 0.0);
        let event = if active then "brownout-enter" else "brownout-exit" in
        Trace.instant ~args:[ ("queued", Json.Int queued) ] event;
        Log.warn event [ ("queued", Json.Int queued) ]
      end

let update_serve_gauges srv =
  Obs.Metrics.set m_serve_clients (float_of_int (List.length (Transport.clients srv.tr)));
  Obs.Metrics.set m_serve_queued (float_of_int (Admission.queued srv.adm));
  Obs.Metrics.set m_serve_inflight (float_of_int (Admission.inflight srv.adm));
  Obs.Metrics.set m_serve_draining (if srv.draining then 1.0 else 0.0)

let close_request ~outcome =
  Option.iter (fun h -> Trace.close_span ~args:[ ("outcome", Json.Str outcome) ] h)

(* ---- request release and transport glue ---- *)

(* The one way out of the server for an admitted request, whichever of
   its seven exits it takes: settled, deadline expired in the queue,
   client cancel, hedged cancel, priority eviction, drain shed, drain
   leftover. It forgets the request, frees its admission slot if it holds
   one, closes its span with [outcome], counts it, logs [warn] (an event
   and fields after the client and job ids) and delivers [answer]. *)
let rec release srv e rq ?count ?warn ~outcome answer =
  Hashtbl.remove srv.requests rq.rjob.id;
  if rq.slot then Admission.settled srv.adm rq.cid;
  close_request ~outcome rq.rspan;
  Option.iter Obs.Metrics.incr count;
  Option.iter
    (fun (event, fields) ->
      Log.warn event (("cid", Json.Int rq.cid) :: ("id", Json.Str rq.orig) :: fields))
    warn;
  match answer with
  | Deliver line -> deliver srv e rq.cid line
  | Retry (kind, message) ->
      deliver srv e rq.cid (reply_to_json (failed ~retriable:true ~id:rq.orig ~kind "%s" message))
  | Silent -> ()

(* A client that died while its job was inflight cannot be told: the
   answer is settled, journaled and cached all the same. A send can
   surface a [Dead] event, whose handling is policy. *)
and deliver srv e cid line =
  match List.find_opt (fun c -> Transport.cid c = cid) (Transport.clients srv.tr) with
  | None -> ()
  | Some c -> send srv e c line

and send srv e c line = handle_tevs srv e (Transport.send srv.tr c line)
and handle_tevs srv e evs = List.iter (handle_tev srv e) evs

and handle_tev srv e = function
  | Transport.Accepted c ->
      Trace.instant ~args:[ ("cid", Json.Int (Transport.cid c)) ] "client-accept"
  | Transport.Line (c, line) ->
      (* Lines split from the same read batch as a poisoning line
         still arrive as events; a closing client's input is dead.
         (A torn trailing line at EOF is [St_eof], not closing, and
         is still admitted.) *)
      if not (Transport.closing c) then admit srv e c line
  | Transport.Eof c ->
      (* A zero read means the peer is done sending, not gone: a client
         that half-closes after its last job still reads every reply,
         so its queued jobs drain as on stdio. A client that is really
         gone surfaces as [Dead] (a failed or stalled write), which
         cancels them. *)
      if not (Transport.eof_drains c) then cancel_client srv e c
  | Transport.Overlong c ->
      Log.warn "overlong-line" [ ("cid", Json.Int (Transport.cid c)) ];
      send srv e c
        (reply_to_json (failed ~id:"" ~kind:"bad-job" "input line exceeds the size limit"));
      cancel_client srv e c
  | Transport.Dead (c, reason) ->
      let args = [ ("cid", Json.Int (Transport.cid c)); ("reason", Json.Str reason) ] in
      Trace.instant ~args "client-dead";
      Log.info "client-dead" args;
      cancel_client srv e c

and cancel_client srv e c =
  let cid = Transport.cid c in
  List.iter
    (fun rq -> release srv e rq ~count:m_serve_cancelled ~outcome:"cancelled" Silent)
    (Admission.cancel srv.adm cid);
  (* A disconnected client's job that is inflight AND hedged is holding
     two workers for an answer nobody will read: kill both attempts and
     release the admission slot. (A single-worker inflight job still
     settles — journal and cache keep the answer — as serve always
     has.) *)
  let hedged =
    Hashtbl.fold
      (fun iid t acc ->
        match Hashtbl.find_opt srv.requests iid with
        | Some rq when rq.cid = cid && t.hedged && (t.primary_up || t.hedge_up) -> (t, rq) :: acc
        | _ -> acc)
      e.inflight []
  in
  List.iter
    (fun (t, rq) ->
      abort_task e t;
      release srv e rq ~count:m_serve_cancelled ~outcome:"cancelled" Silent)
    hedged

and admit srv e c line =
  if String.trim line = "" then ()
  else if String.starts_with ~prefix:"GET " line then handle_http srv e c line
  else
    match Json.parse line with
    | Ok v when is_stats_request v ->
        let id = Option.value ~default:"" (Option.bind (Json.member "id" v) Json.to_str_opt) in
        update_serve_gauges srv;
        send srv e c (stats_line id)
    | parsed -> begin
        match Result.bind parsed job_of_obj with
        | Error msg ->
            send srv e c
              (reply_to_json (failed ~id:"" ~kind:"bad-job" "unparseable job line: %s" msg));
            (* A malformed line poisons only this client: socket framing
               after garbage is untrustworthy, so the connection closes
               once the error reply flushes. The stdio client keeps the
               historical tolerant behavior. *)
            if srv.stdio_cid <> Some (Transport.cid c) then begin
              cancel_client srv e c;
              Transport.close_after_flush srv.tr c
            end
        | Ok job -> admit_job srv e c job
      end

(* A job line is refused at once (a duplicate id, a draining or
   browned-out server, a full queue), answered from the cache, or queued
   as a request. *)
and admit_job srv e c (job : job) =
  let cid = Transport.cid c in
  let iid = internal_id cid job.id in
  let refuse r = send srv e c (reply_to_json r) in
  let cap = srv.scfg.base.queue_cap in
  if Hashtbl.mem srv.requests iid then
    refuse (failed ~id:job.id ~kind:"bad-job" "duplicate job id still in flight")
  else if srv.draining then
    refuse (failed ~retriable:true ~id:job.id ~kind:"overloaded" "server draining; resubmit later")
  else if srv.brownout && priority_class job.priority = 0 then begin
    (* Brownout sheds batch work at the door: sustained pressure means
       the queue is not going to reach it before its usefulness expires
       anyway. *)
    Obs.Metrics.incr m_shed;
    Obs.Metrics.incr m_brownout_shed;
    Log.warn "brownout-shed" [ ("cid", Json.Int cid); ("id", Json.Str job.id) ];
    refuse
      (failed ~retriable:true ~id:job.id ~kind:"overloaded"
         "brownout: batch work shed under sustained overload; resubmit later")
  end
  else if total_load srv e >= cap && not (shed_lower_priority srv e ~than:job.priority) then begin
    (* Load shedding: a full queue answers immediately instead of
       buffering without bound; the client may resubmit. (A
       higher-priority arrival instead evicts the oldest queued job of
       the lowest class — see [shed_lower_priority] — and is
       admitted.) *)
    Obs.Metrics.incr m_shed;
    Log.warn "shed" [ ("cid", Json.Int cid); ("id", Json.Str job.id) ];
    refuse
      (failed ~retriable:true ~id:job.id ~kind:"overloaded" "queue full (%d jobs); resubmit later"
         cap)
  end
  else begin
    (* The serve-side request span: parented by the client's propagated
       context, parent of the engine's job span. *)
    let rspan =
      Trace.open_span
        ?parent:(Option.bind job.trace Trace.ctx_of_string)
        ~args:[ ("cid", Json.Int cid); ("id", Json.Str job.id) ]
        "request"
    in
    let digest = Journal.canonical_digest job in
    match Cache.find srv.cache ~digest ~id:job.id with
    | Cache.Hit { line; _ } ->
        Trace.instant ~args:[ ("id", Json.Str job.id) ] "cache-hit";
        close_request ~outcome:"cache-hit" rspan;
        journal_done e ~id:job.id ~digest line;
        send srv e c line
    | Cache.Miss | Cache.Cert_reject _ ->
        Obs.Metrics.incr m_jobs;
        let trace =
          match rspan with
          | Some h -> Some (Trace.ctx_to_string (Trace.handle_ctx h))
          | None -> job.trace
        in
        let rq =
          {
            cid;
            orig = job.id;
            digest;
            rjob = { job with id = iid; trace };
            rspan;
            (* The end-to-end clock starts now: queue time below is the
               client's budget being spent. *)
            deadline = Option.map (fun ms -> now_s () +. (float_of_int ms /. 1000.0)) job.deadline_ms;
            slot = false;
          }
        in
        Hashtbl.replace srv.requests iid rq;
        Admission.enqueue ~prio:(priority_class job.priority) srv.adm cid rq
  end

(* An HTTP GET on the job socket is a metrics scrape: answer with one
   HTTP/1.0 response and close. [/metrics] is the full Prometheus
   exposition; [/metrics/counters] restricts it to counters, which are
   deterministic under a seeded fault plan (gauges and histograms carry
   wall-clock noise) — the byte-stable variant CI diffs. *)
and handle_http srv e c line =
  match String.split_on_char ' ' line with
  | "GET" :: target :: _ ->
      update_serve_gauges srv;
      let respond status ctype body =
        send srv e c
          (Printf.sprintf
             "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
             status ctype (String.length body) body)
      in
      Log.debug "scrape" [ ("cid", Json.Int (Transport.cid c)); ("target", Json.Str target) ];
      (match target with
      | "/metrics" ->
          respond "200 OK" "text/plain; version=0.0.4" (Obs.Metrics.prometheus_string ())
      | "/metrics/counters" ->
          respond "200 OK" "text/plain; version=0.0.4"
            (Obs.Metrics.prometheus_string ~only_counters:true ())
      | _ -> respond "404 Not Found" "text/plain" "not found\n");
      Transport.close_after_flush srv.tr c
  | _ -> ()

(* At the admission cap, an arrival of class P may evict the oldest
   queued job of a class strictly below P: the victim gets the same
   retriable [overloaded] reply a plain shed produces, and the arrival
   takes its slot. Returns whether a slot was freed. *)
and shed_lower_priority srv e ~than =
  match Admission.steal_lowest srv.adm ~below:(priority_class than) with
  | None -> false
  | Some (_, rq) ->
      release srv e rq ~count:m_shed ~outcome:"shed"
        ~warn:("priority-evict", [ ("priority", Json.Str rq.rjob.priority) ])
        (Retry ("overloaded", "queue full; evicted for higher-priority work; resubmit later"));
      true

(* ---- settlement ---- *)

(* Move admitted jobs into the engine only while a worker is idle and
   nothing is already waiting there: keeping the backlog in the
   per-client queues is what makes the round-robin fair. A popped job
   whose end-to-end deadline already expired in the queue is shed here
   — a retriable [deadline_exceeded] reply, no worker, no journal
   entry. Under brownout, non-interactive work leaves the queue with a
   degraded budget (the retry divisor, applied once). *)
let feed srv e =
  let continue = ref true in
  while !continue && Pool.idle_count e.pool > 0 && Queue.is_empty e.pending do
    match Admission.next srv.adm with
    | None -> continue := false
    | Some (_, rq) -> begin
        rq.slot <- true;
        match rq.deadline with
        | Some d when d <= now_s () ->
            release srv e rq ~count:m_deadline_exceeded ~outcome:"deadline_exceeded"
              ~warn:("deadline-exceeded", [])
              (Retry ("deadline_exceeded", "deadline expired while queued for admission"))
        | deadline_abs ->
            let j = rq.rjob in
            let j =
              if srv.brownout && priority_class j.priority < 2 then begin
                Obs.Metrics.incr m_brownout_degraded;
                Trace.instant
                  ~args:[ ("id", Json.Str j.id); ("reason", Json.Str "brownout") ]
                  "degrade";
                { j with budget = degrade_budget ~degrade:srv.scfg.base.degrade j.budget }
              end
              else j
            in
            submit ?deadline_abs ~origin:rq.orig ~digest:rq.digest e j;
            dispatch_ready e
      end
  done

(* The engine's [emit]: the journal already holds the settled line; the
   cache keeps it, and the request's client reads it. *)
let settled srv e (t : task) (r : reply) line =
  match Hashtbl.find_opt srv.requests t.job.id with
  | None -> ()
  | Some rq ->
      Cache.store srv.cache ~digest:rq.digest ~line r;
      release srv e rq ~outcome:(verdict_name r.verdict) (Deliver line)

(* The journal is read once, at the open: its settled answers seed the
   cache with their journaled lines. Serve journals key [Done] entries by
   the canonical digest, which is exactly the cache key, and the
   certificate gate inside [Cache.find] keeps a tampered entry from ever
   being served. *)
let open_serve_journal (cfg : config) cache path =
  match Journal.open_load ~sync:cfg.journal_sync path with
  | Ok (jl, rep) ->
      Hashtbl.iter
        (fun _id { Journal.digest; reply; line } -> Cache.store cache ~digest ~line reply)
        rep.Journal.settled;
      jl
  | Error msg -> invalid_arg (Printf.sprintf "Runner.serve_sockets: %s" msg)

(* ---- transport glue ---- *)

(* One poll of the workers and the clients, and the handling of what it
   returns. Client input is read only when [reading]: a draining server
   only settles and flushes. *)
let turn srv e ~reading ~timeout =
  let extra = if reading then Transport.read_fds ~accepting:(not srv.draining) srv.tr else [] in
  let extra_write = Transport.write_fds srv.tr in
  List.iter
    (function
      | Pool.Input fd -> handle_tevs srv e (Transport.handle_readable srv.tr fd)
      | Pool.Writable fd -> handle_tevs srv e (Transport.handle_writable srv.tr fd)
      | ev -> handle_event e ev)
    (Pool.poll ~extra ~extra_write ~timeout e.pool)

(* A client at EOF with nothing owed and nothing buffered is done. Its
   requests are exactly its queued and slot-holding jobs in admission. *)
let sweep srv =
  List.iter
    (fun c ->
      let cid = Transport.cid c in
      if
        Transport.at_eof c
        && Transport.pending_out c = 0
        && Admission.queued_for srv.adm cid + Admission.inflight_for srv.adm cid = 0
      then Transport.drop srv.tr c)
    (Transport.clients srv.tr)

(* SIGTERM/SIGINT request a graceful drain. The handler only flips a
   flag; everything observable happens in the loop, not in signal
   context. Returns the handlers to restore. *)
let install_drain_signals srv =
  let install s behavior =
    match Sys.signal s behavior with
    | old -> Some (s, old)
    | exception Invalid_argument _ -> None
    | exception Sys_error _ -> None
  in
  List.filter_map Fun.id
    [
      install Sys.sigterm (Sys.Signal_handle (fun _ -> srv.draining <- true));
      install Sys.sigint (Sys.Signal_handle (fun _ -> srv.draining <- true));
      (* A write to a client whose peer vanished must surface as EPIPE
         (handled per client in {!Transport}), not kill the server. *)
      install Sys.sigpipe Sys.Signal_ignore;
    ]

let restore_signals =
  List.iter (fun (s, old) ->
      match Sys.set_signal s old with
      | () -> ()
      | exception Invalid_argument _ -> ()
      | exception Sys_error _ -> ())

(* ---- drain ---- *)

(* Graceful drain: stop accepting, shed everything still queued
   (retriable — a resubmission after restart can succeed), give inflight
   jobs [drain_grace] seconds to settle, shed what outlived it, flush
   what the clients will take. *)
let drain_server srv e =
  update_serve_gauges srv;
  Transport.close_listeners srv.tr;
  List.iter
    (fun c ->
      List.iter
        (fun rq ->
          release srv e rq ~count:m_serve_cancelled ~outcome:"shed"
            (Retry ("overloaded", "server draining; resubmit later")))
        (Admission.cancel srv.adm (Transport.cid c)))
    (Transport.clients srv.tr);
  let deadline = now_s () +. srv.scfg.drain_grace in
  while Hashtbl.length srv.requests > 0 && now_s () < deadline do
    dispatch_ready e;
    turn srv e ~reading:false ~timeout:(Float.min 0.1 (Float.max 0.01 (deadline -. now_s ())))
  done;
  (* Whatever outlived the grace period is shed too. Its attempts are
     killed, so its [Started] journal record stays the only one: it
     never settled. *)
  List.iter
    (fun rq ->
      Option.iter (abort_task e) (Hashtbl.find_opt e.inflight rq.rjob.id);
      release srv e rq ~count:m_serve_cancelled ~outcome:"shed"
        (Retry ("overloaded", "server draining; job did not settle within the grace period")))
    (Hashtbl.fold (fun _ rq acc -> rq :: acc) srv.requests []);
  (* Final flush, bounded: a slow reader does not hold up the exit. *)
  let flush_deadline = now_s () +. 1.0 in
  while
    now_s () < flush_deadline
    && List.exists (fun c -> Transport.pending_out c > 0) (Transport.clients srv.tr)
  do
    turn srv e ~reading:false ~timeout:0.05
  done

let serve_sockets ?stdio ?(preconnected = []) ?(preconnected_abrupt = []) ?handler scfg =
  flight_on_crash @@ fun () ->
  if scfg.cache_entries < 0 then
    invalid_arg "Runner.serve_sockets: cache size must be non-negative";
  if scfg.drain_grace < 0.0 then
    invalid_arg "Runner.serve_sockets: drain grace must be non-negative";
  let tr = Transport.create ~write_timeout:scfg.write_timeout () in
  Option.iter (fun path -> Transport.add_listener tr (Transport.listen_unix path)) scfg.listen;
  Option.iter (fun port -> Transport.add_listener tr (Transport.listen_tcp port)) scfg.tcp;
  let stdio_cid =
    Option.map
      (fun (ic, oc) ->
        (* Anything already buffered on the channel must leave before raw
           fd writes interleave with it. *)
        flush oc;
        Transport.cid
          (Transport.add_client tr ~owns_fds:false ~in_fd:(Unix.descr_of_in_channel ic)
             ~out_fd:(Unix.descr_of_out_channel oc) ()))
      stdio
  in
  (* Pre-connected fds (a test's socketpair ends) are socket clients
     without a listener. *)
  List.iter
    (fun fd -> ignore (Transport.add_client tr ~owns_fds:true ~in_fd:fd ~out_fd:fd ()))
    preconnected;
  (* [preconnected_abrupt] fds take EOF as a disconnect, cancelling the
     client's work: the path a dead client takes, which the hedged-
     disconnect tests exercise this way without a write to fail. *)
  List.iter
    (fun fd ->
      ignore (Transport.add_client tr ~eof_drains:false ~owns_fds:true ~in_fd:fd ~out_fd:fd ()))
    preconnected_abrupt;
  let cache = Cache.create ~entries:scfg.cache_entries in
  let jnl = Option.map (open_serve_journal scfg.base cache) scfg.serve_journal in
  let srv =
    {
      scfg;
      tr;
      adm = Admission.create ~client_inflight:scfg.client_inflight;
      cache;
      requests = Hashtbl.create 64;
      stdio_cid;
      draining = false;
      brownout = false;
      pressure_since = None;
    }
  in
  let saved_signals = install_drain_signals srv in
  let e = create_engine ?handler ?journal:jnl scfg.base ~emit:(settled srv) in
  Fun.protect
    ~finally:(fun () ->
      (* The journal must close (releasing its lock) on every exit path,
         including a signal-initiated drain — a restarted server reopens
         it immediately. The trace sink is NOT finished here: it belongs
         to the process (the CLI flushes it [at_exit]), and an embedding
         caller may still have spans of its own open across this call. *)
      Option.iter Journal.close jnl;
      Transport.shutdown tr;
      Pool.shutdown e.pool;
      restore_signals saved_signals)
    (fun () ->
      while
        (not srv.draining)
        && (Transport.listening tr || Transport.clients tr <> [] || total_load srv e > 0)
      do
        update_brownout srv;
        feed srv e;
        (* Promote backed-off retries even when admission has nothing new
           to feed: a crashed job's delayed retry must re-dispatch on its
           own — [engine_timeout] wakes the poll for exactly this. *)
        dispatch_ready e;
        update_serve_gauges srv;
        turn srv e ~reading:true ~timeout:(engine_timeout e);
        handle_tevs srv e (Transport.check_timeouts tr);
        feed srv e;
        sweep srv
      done;
      if srv.draining then drain_server srv e;
      update_serve_gauges srv)

let serve cfg ic oc =
  serve_sockets ~stdio:(ic, oc)
    { default_serve_config with base = cfg; cache_entries = 0 }
