(** Wire protocol for the supervised execution layer.

    Jobs and replies cross the supervisor/worker pipe boundary (and the
    [rpq serve] stdin/stdout boundary, and the journal) as single lines of
    JSON, so one schema serves all three. The encoder/decoder pair is
    hand-rolled: the project deliberately has no JSON dependency, and the
    subset needed here (objects, arrays, strings, ints, floats, bools,
    null) is small enough to keep total.

    The module lives in the dependency-free [cert] library so the
    independent certificate checker ([rpq_certcheck]) can parse reply
    streams without linking any solver code; [Runner.Proto] is an alias
    of it. *)

val schema_version : int
(** Current reply-schema version (1). Emitted as the [v] field on every
    reply and classification record; decoders accept a missing [v]
    (pre-versioning journals) and reject any other value. *)

type budget_spec = {
  deadline : float option;  (** wall-clock seconds *)
  steps : int option;
  memo_cap : int option;
}

val no_budget : budget_spec

type job = {
  id : string;  (** caller-chosen; echoed in the reply and the journal *)
  db : string;  (** database in {!Graphdb.Serialize} text form *)
  query : string;  (** RPQ regex, [Automata.Regex.parse] syntax *)
  budget : budget_spec;
  faults : string option;
      (** per-job [Resilience.Faults] plan ([Faults.parse] grammar);
          [None] inherits the worker's ambient plan *)
  deadline_ms : int option;
      (** end-to-end client deadline in milliseconds, counted from the
          moment the client stamped the job. Wire-only like [trace]:
          excluded from {!job_to_json} (so deadline variants of the same
          job share a canonical digest and a cache entry), carried by
          {!job_to_wire_json}. Decoding rejects negative values. *)
  priority : string;
      (** admission class; one of {!priorities}, default
          {!default_priority}. Wire-only like [trace] and [deadline_ms]
          (emitted only when non-default, so default-priority wire lines
          are byte-identical to the pre-priority schema). Decoding
          rejects anything outside the closed vocabulary. *)
  trace : string option;
      (** serialized span context ([Obs.Trace.ctx_to_string] form,
          [trace_id:span_id:flag]) naming the parent span of whatever
          work this hop does for the job. Wire-only: {!job_to_json} —
          the journal/cache key — excludes it, so the same job under
          different trace ids digests identically. *)
}

type verdict =
  | V_exact of {
      value : Value.t;
      algorithm : string;
      witness : int list option;  (** fact ids of an optimal removal set *)
    }
  | V_bounded of {
      lower : Value.t;
      upper : Value.t;
      witness : int list option;  (** fact ids certifying [upper] *)
      reason : string;
    }
  | V_failed of { kind : string; message : string; retriable : bool }
      (** [kind] is a stable machine-readable tag ("crash", "timeout",
          "overloaded", "bad-job", ...); [retriable] tells callers of
          [rpq serve] whether resubmitting the same job can help. *)

type reply = {
  id : string;
  attempts : int;  (** 1 for a first-try success *)
  steps : int;  (** budget ticks spent by the successful attempt *)
  wall_s : float;  (** supervisor-side wall-clock seconds, volatile *)
  stages : (string * float) list;
      (** worker-side seconds per solver stage ([Obs.Trace.with_stages]),
          sorted by stage name; empty when stage accounting was off. On
          the wire it is an optional [stages] object, omitted when empty.
          Volatile like [wall_s]: excluded from
          {!reply_equal_ignoring_time}. *)
  trace : string option;
      (** the worker-side job span's context ([trace_id:span_id:1]),
          letting a reply be joined to its spans in a stitched trace.
          Absent when the worker ran untraced; volatile (span ids embed
          pids), so excluded from {!reply_equal_ignoring_time}. *)
  verdict : verdict;
  cert : Certificate.t option;
      (** answer certificate; present on every settled (exact or bounded)
          reply produced by the solver, absent on error replies. On the
          wire it is an optional [cert] object. *)
}

type classification = {
  c_language : string;
  c_verdict : string;  (** ["np-hard"] or ["inconclusive"] *)
  c_cert : Certificate.t option;
      (** a {!Certificate.Hardness} transcript when [c_verdict] is
          ["np-hard"] *)
}
(** A classification record ([rpq certify --json]): one line of JSON
    tagged ["kind":"classification"], distinguishing it from replies in a
    mixed stream. *)

val priorities : string list
(** The closed priority vocabulary, lowest class first:
    [["batch"; "normal"; "interactive"]]. *)

val default_priority : string
(** ["normal"]. *)

val priority_class : string -> int
(** Numeric admission class: batch 0, normal 1, interactive 2. Total on
    strings (unknowns map to the default class), but decoded jobs only
    ever carry members of {!priorities}. *)

val failed :
  ?retriable:bool -> id:string -> kind:string -> ('a, unit, string, reply) format4 -> 'a
(** [failed ~id ~kind fmt ...] builds an error reply ([attempts = 1],
    [retriable] defaults to [false], no certificate). *)

val job_to_json : job -> string
(** The canonical (journal/cache-key) rendering: byte-stable, excludes
    the trace context. *)

val job_to_wire_json : job -> string
(** The transmission rendering: canonical fields plus [trace]. This is
    what crosses the socket and the worker pipe; {!job_of_json} reads
    both forms. *)

val job_of_json : string -> (job, string) result

val job_of_obj : Json.t -> (job, string) result
(** The [Json.t]-level half of {!job_of_json}, for a line already parsed
    (the serve loop tells job lines from stats requests on one parse). *)

val reply_to_json : reply -> string
(** The reply's line. Its members come in a fixed order, which is part
    of the contract: first the head ([v], [id], [attempts], [steps],
    [wall_s]; see {!restamp}), then [stages] and [trace] when present,
    [outcome] and the verdict's members, and [cert] last. *)

val reply_of_json : string -> (reply, string) result

val restamp : string -> reply -> id:string -> attempts:int -> wall_s:float -> string
(** [restamp line r ~id ~attempts ~wall_s], where [r] is [line]'s
    decoded reply, is the line of [{ r with id; attempts; wall_s }] made
    from [line]'s own bytes: when [line] begins with the canonical
    encoding of [r]'s head ([{"v":1,"id":…,"attempts":…,"steps":…,
    "wall_s":…]) followed by a comma, that head is encoded again for the
    new values and every byte after it is kept; otherwise the reply is
    encoded anew with {!reply_to_json}. For a line {!reply_to_json}
    wrote, both give the same bytes; so this is how a supervisor settles
    a worker's reply, or serves a cached one, without encoding the
    certificate again. The decode that produced [r] is the validation:
    bytes after the head are forwarded as the worker wrote them. *)

val read_reply : Json.reader -> (reply, string) result
(** Reads the next value as a reply, straight into the record (a journal
    entry's [reply] member). A syntax error raises inside the reader
    (see {!Json.read}); the [Error] is a field error. Members may come
    in any order, the first of duplicated members counts, unknown ones
    are skipped, and the fields are checked in the order of the record
    above, so the error does not depend on the members' order. *)

val classification_to_json : classification -> string

type record = Reply of reply | Classification of classification

val read_record : Json.reader -> (record, string) result
(** A line of a reply stream: a classification record when its [kind]
    member is ["classification"], else a reply, read as {!read_reply}
    does. *)

val reply_equal_ignoring_time : reply -> reply -> bool
(** Structural equality minus [wall_s], [stages], and [cert] — the
    comparison used by journal re-verification and the
    resume-determinism tests. Wall-clock fields are legitimately
    nondeterministic; certificates are compared by re-checking
    ({!Checker.check_reply}), not structurally, because their LP duals
    lose precision through the %.9g float rendering. *)

val verdict_name : verdict -> string
(** [exact], [bounded], or [error] — matching the wire [outcome] field. *)
