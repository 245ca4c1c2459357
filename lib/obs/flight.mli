(** Crash flight recorder: the process's black box.

    A bounded ring of recent telemetry events — structured {!Log}
    records, {!Trace} span closures, {!Metrics} counter deltas — kept in
    memory at all times and written out only when the process is about
    to die somewhere interesting (an armed fault-plan crash site, a
    fatal signal, an in-process [Faults.Crash]). With no [RPQ_FLIGHT]
    destination configured every entry point is a no-op.

    The dump is a single JSON object published atomically (temp file +
    rename, the journal's discipline), so a post-mortem reader never
    sees a torn file:

    {v
    { "v":1, "reason":"crash:journal.pre_append", "pid":…, "ts":…,
      "seq":…, "dropped":…, "events":[…], "metrics":{…} }
    v} *)

val configure : ?cap:int -> string -> unit
(** Arm the recorder: keep the last [cap] (default 512) events and dump
    to the given path. Raises [Invalid_argument] if [cap < 1]. *)

val configure_from_env : unit -> unit
(** Honors [RPQ_FLIGHT]: unset/[off]/[none]/[0] leaves the recorder
    disarmed; anything else is the dump path. *)

val disable : unit -> unit
val enabled : unit -> bool

val note : Cert.Json.t -> unit
(** Append one event to the ring (overwriting the oldest when full).
    No-op when disarmed — cheap enough for instrumentation paths. *)

val dump : reason:string -> unit -> unit
(** Write the ring plus a final metrics snapshot to the configured path,
    atomically. Never raises (a crash handler must not mask the crash);
    no-op when disarmed. *)

val set_metrics_provider : (unit -> Cert.Json.t) -> unit
(** Called once by [Metrics] at link time; the provider supplies the
    dump's [metrics] field. *)
