(** Supervised execution layer.

    Resilience jobs on the NP-hard side of the dichotomy run exponential
    searches; under fault injection (or plain bad luck) a worker can
    crash, hang, or babble. This module keeps a bounded pool of
    fork-isolated worker processes ({!Pool}) and layers policy on top:

    {ul
    {- {b retries with budget degradation}: a job whose worker died is
       retried up to [retries] times with exponential backoff, each time
       with its budget divided by [degrade] — so a persistently crashing
       exact solve is squeezed until budget exhaustion preempts the crash
       and the job settles as a certified [bounded] answer (see the probe
       ordering contract of {!Resilience.Budget.create});}
    {- {b structured failure}: a job that still cannot settle returns an
       error {e reply} ([kind] one of [crash], [timeout], [malformed],
       [bad-job], [overloaded], [internal]) — the supervisor itself never
       raises on worker misbehavior;}
    {- {b crash recovery}: the supervisor engine under both {!run_batch}
       and {!serve_sockets} write-ahead journals every first dispatch and
       every settlement ({!Journal}), the [Done] record around the one
       line it builds per settled reply, so an interrupted batch rerun
       with the same journal recomputes only unsettled jobs — recorded
       answers are re-verified first unless [RPQ_CHECK=off];}
    {- {b admission control}: {!serve} sheds load with a retriable
       [overloaded] reply once [queue_cap] jobs are pending.}}

    Fault modes [kill:N] and [wedge:N] of {!Resilience.Faults} target
    this layer: workers consult {!Resilience.Faults.worker_mode} per job
    and either self-SIGKILL or wedge (stop responding with SIGTERM
    blocked) at the given budget tick. *)

module Proto = Cert.Proto
module Pool = Pool
module Journal = Journal
module Transport = Transport
module Cache = Cache
module Trace_check = Trace_check

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — exposed so bench/CLI code
    outside this subtree needs no [Unix] dependency of its own. *)

val run_job_locally : Proto.job -> Proto.reply
(** Runs one job in the calling process: parse the database and query,
    apply the job's fault plan (or inherit the ambient one), build the
    budget — wiring {!Resilience.Faults.worker_mode} into the budget
    probe — and solve. Never raises on bad input (returns a [bad-job]
    reply); under a [kill]/[wedge] plan with a live probe it may, by
    design, kill or wedge the calling process. The whole job runs under
    an [Obs.Trace] span with per-stage accounting; the stage totals fill
    the reply's [stages] block (that is how worker-side timings cross the
    fork back to the supervisor). [attempts] and [wall_s] in the reply
    are placeholders for the supervisor to overwrite. *)

val query_cache_bound : int
(** The most queries a process keeps compiled and classified for
    {!run_job_locally}; reaching it empties the table. *)

val query_cache_size : unit -> int
(** How many queries the table holds now. For tests. *)

val worker_handler : string -> string
(** [run_job_locally] lifted to wire form: the pool workers' job-line to
    reply-line function. Total — an unparseable job line yields a
    [bad-job] reply line. *)

type config = {
  workers : int;
  retries : int;  (** extra attempts after the first; 0 = fail fast *)
  degrade : int;  (** budget divisor per retry (≥ 2 effective) *)
  queue_cap : int;  (** admission limit for {!serve} *)
  job_timeout : float option;  (** per-job wall-clock seconds *)
  grace : float;  (** SIGTERM-to-SIGKILL delay for timed-out workers *)
  backoff : float;  (** base retry delay in seconds, doubled per attempt *)
  journal_sync : Journal.sync;
      (** fsync policy for {!run_batch}'s journal (see {!Journal.sync}) *)
  max_heap_mb : int option;
      (** worker memory ceiling: a [Gc] alarm watches the major heap and
          the budget probe converts an overrun into
          [Budget.Exhausted Memory], so an OOM-bound job settles as a
          certified [Bounded] reply instead of dying to the OOM killer *)
  hedge_after : float option;
      (** certificate-gated hedged execution: when an attempt has been
          running this many seconds, a worker is idle, and no job is
          waiting to dispatch, launch a speculative duplicate of it (same
          payload, same budget). The first reply whose certificate
          re-checks ({!Cert.Checker.check_reply}) settles the job and the
          loser is killed (its open worker spans close tagged
          ["hedged_loser"], no crash event, no retry consumed); a racing
          reply whose certificate fails is kept only as a fallback.
          Exactly one reply is emitted and journaled either way, and
          [attempts] counts primary dispatches only — under a
          deterministic fault plan a hedged run settles identically to an
          unhedged one modulo wall clock. [None] (the default) disables
          hedging. *)
  poison_k : int;
      (** poison-job quarantine: a job whose primary attempts have killed
          this many workers — crashes and wedges count, plain timeouts
          and malformed replies do not — is settled as a non-retriable
          error reply with kind ["poison"] instead of spending its
          remaining retries on more respawns. Counted in the
          [rpq_runner_poisoned_total] Prometheus family, with a
          flight-recorder breadcrumb. The attempt that could be the K-th
          death runs at the degradation floor (1 step; 0.01 s if the job
          has a deadline) instead of one more [degrade] step, and
          quarantine fires only if that attempt dies too. 0 disables
          quarantine. *)
}

val default_config : config
(** 4 workers, 2 retries, degrade 8, queue cap 64, no timeout, 0.5s
    grace, 50ms base backoff, per-job journal fsync, no heap ceiling,
    hedging off, quarantine after 3 worker deaths. *)

val set_max_heap_mb : int option -> unit
(** Sets the process-wide heap ceiling consulted by {!run_job_locally}.
    Engine construction calls this from [config.max_heap_mb] before the
    pool forks (so workers inherit it); expose it separately for the
    fork-free paths ([rpq solve --json]). *)

val degrade_budget : degrade:int -> Proto.budget_spec -> Proto.budget_spec
(** The per-retry budget squeeze: deadline and steps divided by
    [degrade] (floors of 0.01s / 1 step); a job with {e no} step budget
    gets a default finite one on its first retry, so even an
    unconstrained crashing job converges to a budget small enough for
    exhaustion to win. Exposed for the monotonicity tests. *)

val verify_reply : Proto.reply -> bool
(** Validity check of a recorded answer, used on journal resume, by the
    result cache, and as the hedge gate: the reply's certificate must
    re-check ({!Cert.Checker.check_reply}). This needs no access to the
    job — the certificate carries its own evidence — and rejects both
    forged witnesses (a [Cut]/[Bounds] certificate pins the witness) and
    settled answers whose optimality argument fails, without re-running
    any solver. *)

type batch_stats = {
  ran : int;  (** jobs actually executed this run *)
  resumed : int;  (** jobs skipped because the journal had their answer *)
  failures : int;  (** replies whose verdict is an error *)
}

val run_batch :
  ?journal:string -> config -> Proto.job list -> (Proto.reply * string) list * batch_stats
(** Runs the jobs to completion and returns one reply per job, with its
    line, {e in input order} (so output is deterministic regardless of
    worker count and scheduling). A computed reply's line is the
    worker's bytes with the head restamped ({!Proto.restamp}), the same
    bytes the journal's [Done] record holds; a resumed reply's line is
    its encoding. Job ids must be unique — raises [Invalid_argument]
    otherwise, as with an unreadable journal. With [?journal], the
    journal is read once, at its open, under its lock: settled jobs
    found there (matching id {e and} digest, and passing
    {!verify_reply} when [RPQ_CHECK] is not [off]) are reused, and this
    run's dispatches and settlements are appended for the next
    resume. *)

(** Scheduling policy of the multi-client server, exposed so its
    properties (weighted-fair class cycle, round-robin order, the
    per-client inflight cap) are testable deterministically, without
    sockets or worker processes. Client keys are transport client ids;
    priority classes are {!Proto.priority_class} values (batch 0,
    normal 1, interactive 2). *)
module Admission : sig
  type 'a t

  val create : client_inflight:int -> 'a t
  (** Raises [Invalid_argument] when [client_inflight < 1]. *)

  val enqueue : ?prio:int -> 'a t -> int -> 'a -> unit
  (** Appends to the client's FIFO of class [prio] (default 1, clamped
      into range); a (class, client) pair seen for the first time joins
      the back of that class's round-robin rotation. *)

  val next : 'a t -> (int * 'a) option
  (** Weighted-fair dequeue. Classes take turns along the fixed cycle
      interactive, normal, interactive, batch, interactive, normal,
      interactive (weights 4:2:1); when the scheduled class has no
      eligible work the highest non-empty class goes instead, so a
      worker never idles on ceremony. Within a class: pops from the
      first client in rotation that has queued work and fewer than
      [client_inflight] jobs outstanding (the cap is global across
      classes); that client moves to the back of the rotation, and a
      client skipped for lack of headroom keeps its place in line.
      [None] when no client is eligible. *)

  val steal_lowest : 'a t -> below:int -> (int * 'a) option
  (** Evicts and returns the oldest queued item of the lowest non-empty
      class strictly below [below] — priority-aware shedding at the
      admission cap. [None] when every queued item is of class ≥
      [below]. *)

  val settled : 'a t -> int -> unit
  (** One of the client's outstanding jobs finished; frees headroom. *)

  val cancel : 'a t -> int -> 'a list
  (** Drops the client from every class rotation and returns its queued
      (never its outstanding) items, FIFO within each class, lowest
      class first. *)

  val queued : 'a t -> int
  val queued_for : 'a t -> int -> int
  val inflight : 'a t -> int
  val inflight_for : 'a t -> int -> int
end

type serve_config = {
  base : config;
  listen : string option;  (** Unix-domain socket path to listen on *)
  tcp : int option;  (** loopback TCP port to listen on (0 = ephemeral) *)
  cache_entries : int;  (** result-cache capacity; 0 disables *)
  client_inflight : int;  (** per-client outstanding-job cap *)
  drain_grace : float;  (** seconds to let inflight jobs settle on drain *)
  write_timeout : float;  (** stalled-write client eviction timeout *)
  serve_journal : string option;
      (** append settlements here and seed the cache from it on start *)
  brownout_after : float option;
      (** load watchdog: when the admission queue has stayed at or above
          half of [queue_cap] for this many seconds continuously, the
          server enters brownout — new [batch] jobs are shed on arrival
          with a retriable [overloaded] reply, and non-interactive jobs
          have their step budgets degraded once (same squeeze as a
          retry) when dispatched — until the queue drains below the
          threshold. Transitions are reason-coded in traces, logs and
          the [serve.brownout] gauge. [None] (the default) disables the
          watchdog. *)
}

val default_serve_config : serve_config
(** [default_config] engine, no listeners, 256 cache entries, 8 jobs
    per client inflight, 5s drain grace, 30s write timeout, no journal,
    no brownout watchdog. *)

val serve_sockets :
  ?stdio:in_channel * out_channel ->
  ?preconnected:Unix.file_descr list ->
  ?preconnected_abrupt:Unix.file_descr list ->
  ?handler:(string -> string) ->
  serve_config ->
  unit
(** The multi-client server. Listens per [listen]/[tcp] (either, both,
    or neither) and optionally serves a pre-connected [?stdio] pair;
    [?preconnected] fds (e.g. {!Transport.pair} ends) are registered as
    additional socket clients, while [?preconnected_abrupt] fds take EOF
    as a disconnect (queued jobs dropped, inflight and hedged attempts
    aborted — exposed this way so the disconnect path is testable
    without a write to fail); [?handler] replaces
    {!worker_handler} in the workers, so a test can make a worker write
    a reply line the supervisor must refuse;
    runs until there is no listener, no client and no work left, or
    until SIGTERM/SIGINT triggers a graceful drain (stop accepting,
    shed queued jobs with retriable [overloaded] replies, wait up to
    [drain_grace] for inflight jobs, flush, release the journal lock,
    final trace flush).

    Per client: line-framed jobs in, replies out in settlement order;
    admission is weighted-fair across priority classes and round-robin
    across clients within a class (see {!Admission}), with at most
    [client_inflight] outstanding per client; a malformed line draws a
    [bad-job] reply and closes that client (framing after garbage is
    untrustworthy) without touching any other client; a half-close
    (EOF) drains the client's jobs and delivers every reply, while a
    disconnect (a failed or stalled write) cancels that client's
    {e queued} jobs and aborts its inflight jobs that are mid-hedge — an
    unhedged inflight job settles, is journaled and cached. A job
    carrying [deadline_ms] that expires while queued
    is shed with a retriable [deadline_exceeded] reply; one that
    dispatches has its wall deadline and solver budget clamped to the
    remaining client budget. Global [queue_cap] overflow first tries to
    evict the oldest queued job of a strictly lower priority class
    (shed with a retriable [overloaded] reply) before shedding the
    arrival itself.

    Results: a worker's reply line settles only if it decodes
    ({!Proto.reply_of_json}; a line that does not is a [Malformed]
    worker death, retried like a crash), and then settles from the
    worker's own bytes with the head restamped ({!Proto.restamp}): the
    client's line, the journal's [Done] record and the cache entry are
    those bytes. Every settled non-error reply is cached under the job's
    canonical digest ({!Journal.canonical_digest}); an identical
    resubmission — same client or not — is answered from the cache
    {e only after} its certificate re-checks ({!Cert.Checker}); a hit
    whose certificate fails is evicted and recomputed. With
    [serve_journal], settlements are journaled under the client's
    original job ids and the cache is pre-seeded from the journal on
    start (each entry certificate-gated on use, so a tampered journal
    entry can be seeded but never served); the journal is read once, at
    its open.

    An admitted job leaves the server by one release, whichever way it
    goes (settled, deadline expired while queued, disconnect, hedged
    disconnect, priority eviction, drain shed, unsettled at the end of
    the drain grace): its admission slot is freed, its [request] span
    closed once with the outcome, and its reply, if any, delivered. *)

val serve : config -> in_channel -> out_channel -> unit
(** Line-oriented job server: one {!Proto.job} JSON line in, one
    {!Proto.reply} JSON line out (flushed per reply), replies in
    settlement order, until EOF on input and all accepted jobs settled.
    Jobs beyond [queue_cap] are shed with a retriable [overloaded] reply;
    a job id equal to one still in flight is rejected ([bad-job]).
    Equivalent to {!serve_sockets} with no listeners, no cache and no
    journal, the channel pair as the sole (EOF-drains) client.

    A line [{"stats": true}] (optionally with an ["id"]) is a control
    request, not a job: it is answered immediately — regardless of queue
    depth — with [{"id": …, "stats": {…}}] carrying the
    [Obs.Metrics] snapshot (job/retry/death counters, queue gauges,
    latency histograms) at that instant. [runner.jobs] counts a job at
    admission, so the snapshot includes jobs on earlier lines that are
    still queued. *)
