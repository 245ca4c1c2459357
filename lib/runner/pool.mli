(** Fork-isolated worker pool.

    The mechanism half of the supervised execution layer: it forks
    workers, frames line-delimited messages over per-worker pipe pairs,
    detects and classifies worker deaths, enforces per-job wall-clock
    deadlines (SIGTERM, then SIGKILL after a grace period — the SIGKILL
    path catches workers that block SIGTERM, as [wedge:N] ones do), and
    forks a replacement for every dead worker when its slot is next
    assigned, so a closing pool forks nothing. Policy — retries,
    budget degradation, queueing, journaling — lives in {!Runner}.

    Workers run [handler] on each job line and reply with one line. The
    pool never interprets either payload. One job is in flight per worker
    at most; {!assign} requires an idle worker (check {!idle_count}). *)

type death =
  | Exited of int  (** exited with this nonzero code *)
  | Signaled of int  (** killed by this signal *)
  | Timed_out
      (** overran the job deadline and died from the pool's SIGTERM
          within the grace period *)
  | Wedged
      (** overran the job deadline AND survived SIGTERM through the whole
          grace period (blocked or ignored it), so the pool SIGKILLed it.
          Reported separately from [Timed_out] because a worker that has
          to be hard-killed is evidence of a hostile job: {!Runner}'s
          poison quarantine counts wedges as worker deaths but plain
          timeouts as the job's own fault. *)
  | Malformed of string
      (** never produced by the pool itself: {!Runner} uses it when a
          worker's reply line does not parse *)

val death_to_string : death -> string

type config = {
  workers : int;  (** pool size, ≥ 1 *)
  job_timeout : float option;  (** per-job wall-clock seconds *)
  grace : float;  (** SIGTERM-to-SIGKILL escalation delay, seconds *)
}

type t

type event =
  | Completed of { id : string; reply : string }  (** reply line, unparsed *)
  | Crashed of { id : string; death : death }
  | Trace of { id : string; pid : int; line : string }
      (** a trace event streamed from the worker's pipe sink
          ([Obs.Trace.adopt_pipe]) while [id] was in flight, its
          [Obs.Trace.pipe_prefix] marker stripped; the supervisor
          stitches it into its own sink. Does not settle the job. *)
  | Input of Unix.file_descr  (** an [~extra] fd of {!poll} is readable *)
  | Writable of Unix.file_descr  (** an [~extra_write] fd of {!poll} is writable *)

val create : config -> handler:(string -> string) -> t
(** Forks [workers] children, each looping [handler] over incoming job
    lines. Installs [Signal_ignore] for SIGPIPE in the calling process (a
    worker dying mid-write must not kill the supervisor). The handler runs
    in the child and must not assume any parent state mutated after
    [create]. *)

val idle_count : t -> int

val assign : t -> id:string -> ?timeout:float -> payload:string -> unit -> unit
(** Sends the job to some idle worker and starts its deadline clock: the
    effective wall deadline is the tighter of the pool-wide [job_timeout]
    and [?timeout] (seconds; e.g. the remainder of a client's end-to-end
    deadline). Raises [Invalid_argument] if no worker is idle — the
    caller owns the queue and must not overcommit. An idle slot whose
    worker died is refilled here, with a fresh fork. A crash racing the
    send is fine: the death surfaces through {!poll} and the job is
    reported [Crashed]. *)

val abort : t -> id:string -> bool
(** Deliberately discards the in-flight attempt running [id]: SIGKILLs
    its worker, reaps it (the slot is refilled by the next {!assign}),
    and suppresses the [Crashed] event
    (the caller chose the death — it is not a failure of the job). Reply
    bytes already buffered from the doomed attempt are dropped. Returns
    [false] if no worker is running [id] (it may have just completed).
    Used for hedge losers and for cancelling a disconnected client's
    hedged attempts. *)

val poll :
  ?extra:Unix.file_descr list ->
  ?extra_write:Unix.file_descr list ->
  ?timeout:float ->
  t ->
  event list
(** Waits (at most [timeout] seconds, default 1.0, sooner if a job
    deadline is nearer) for worker replies, worker deaths, readability of
    an [extra] fd, or writability of an [extra_write] fd (used by the
    serve loop to flush backpressured client output), and returns the
    events observed — possibly none. A dead worker's slot counts as idle
    and is refilled by the next {!assign}. *)

val shutdown : t -> unit
(** Closes all pipes, SIGKILLs stragglers, reaps every child. Idempotent.
    Jobs still in flight are abandoned without an event. *)
