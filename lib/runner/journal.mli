(** Crash-consistent write-ahead job journal (v2) for resumable batch
    runs and the serve loop's settled answers.

    The supervisor engine appends one record per event — [Started] when
    a job is first dispatched, [Done] with the full reply when it
    settles — so that after a crash (or a SIGKILL of the supervisor
    itself) a re-run with the same journal skips every settled job and
    recomputes only the rest.

    {2 On-disk format (v2)}

    {v
    rpq-journal-v2\n                          header line
    <len>:<crc>:<seq>:<payload>\n             one line per record
    v}

    where [payload] is the entry's {!Cert.Proto.Json} line (human-greppable,
    schema-shared with the wire protocol), [len] its byte length
    (self-delimiting framing), [crc] the CRC32 (IEEE) of
    ["<seq>:<payload>"] as 8 lowercase hex digits, and [seq] a strictly
    increasing sequence number from 1. A non-empty file without the
    header (and not a torn prefix of it) is not a journal: {!load}
    refuses it with a [path:1:] error.

    {2 Recovery semantics}

    {!load} distinguishes, byte-precisely:
    {ul
    {- a {b torn tail} — the final record is a strict prefix of a valid
       frame, or a complete {e final} record whose checksum fails: the
       expected artifact of dying mid-append. The good prefix loads, the
       tail is reported (and truncated away by the next {!open_load});}
    {- {b corruption} — a checksum or framing failure {e before} the last
       record, a bad payload in a checksummed frame, or a sequence
       regression: the file is not a trustworthy journal, and [load]
       refuses with a [file:line] error rather than silently dropping
       settled answers.}} *)

type entry =
  | Started of { id : string; digest : string }
  | Done of { id : string; digest : string; reply : Cert.Proto.reply }

val job_digest : Cert.Proto.job -> string
(** Hex digest of the canonical job encoding (with its {e original}
    budget). Resume matches on both id and digest, so editing a job in the
    jobfile invalidates its recorded answer instead of silently reusing
    it. Delivery-only fields ([deadline_ms], [priority], trace context)
    are excluded from the canonical encoding: the same query at a
    different priority or deadline digests — and therefore resumes and
    caches — identically. A hedged job journals exactly one [Done] entry
    (the certificate-checked winner); the speculative loser is aborted
    before settlement, so hedged and unhedged runs produce byte-identical
    journals modulo wall-clock fields. *)

val canonical_digest : Cert.Proto.job -> string
(** {!job_digest} with the job's id blanked, so two clients submitting
    the same work under different ids agree on one key. The serve loop
    journals and caches under this digest; batch journals use
    {!job_digest}, keeping resume strictly per-submission. *)

val entry_to_json : entry -> string
(** The record {e payload} — framing (length, checksum, sequence) is
    added by {!append}. *)

val entry_of_json : string -> (entry, string) result
(** Reads a record payload straight into the entry, with
    {!Cert.Proto.read_reply} for a [Done] entry's reply. *)

val crc32 : string -> off:int -> len:int -> int
(** The CRC32 (IEEE) of [len] bytes of the string from [off], as the
    records carry it. It folds eight bytes a step (slicing-by-8). *)

type torn =
  | Truncated  (** the final record is a strict prefix of a valid frame *)
  | Bad_checksum  (** the final record is complete but its CRC fails *)

type settled = {
  digest : string;
  reply : Cert.Proto.reply;
  line : string;
      (** the bytes of the record's [reply] member: the settled line as
          the supervisor sent it, kept from the decode so a resume prints
          it, and a cache serves it, without encoding the reply again *)
}

type report = {
  entries : entry list;  (** every intact record, in file order *)
  settled : (string, settled) Hashtbl.t;
      (** settled jobs by id: the last [Done] entry wins, so a re-run job
          (e.g. after a failed re-verification) supersedes its earlier
          answer *)
  records : int;  (** [List.length entries] *)
  bytes : int;  (** total file size *)
  dead_bytes : int;
      (** bytes a {!compact} would reclaim: [Started] records, [Done]
          records superseded by a later one for the same id, and the torn
          tail *)
  torn_bytes : int;  (** trailing bytes discarded as a torn write *)
  torn : torn option;  (** why the tail was discarded, if it was *)
  last_seq : int;  (** highest sequence number seen; 0 for empty *)
}

val load : string -> (report, string) result
(** Reads a journal back. A missing file is an empty journal. A torn tail
    is tolerated and reported; mid-file corruption (checksum, framing,
    sequence regression) and a missing header are an [Error] carrying a
    [path:line] position — resuming from such a file would silently drop
    results. *)

type sync =
  | Never  (** flush to the OS only: fastest, loses on power cut *)
  | Per_line  (** [Unix.fsync] after every record *)
  | Per_job
      (** [Unix.fsync] after every [Done] record only — settlements are
          durable, [Started] markers ride along on the next sync *)

type t

val open_load :
  ?sync:sync -> ?compact_ratio:float -> string -> (t * report, string) result
(** Opens the journal for appending, creating it if missing, and returns
    its report as {!load} reads it, before any auto-compaction: a
    driver reads its journal once, under the lock, at the open. Eager,
    and exclusive: the file is locked ([Unix.lockf], plus an in-process
    registry — record locks do not exclude within one process) so two
    supervisors cannot interleave records; a held lock is an [Error].
    On open, a journal whose dead-byte ratio is at least [compact_ratio]
    (default 0.5) is auto-compacted via the atomic rewrite of {!compact},
    and a torn tail is truncated, so appends always extend a clean
    prefix. New records continue the sequence from the last intact one.
    [sync] defaults to [Per_job]. Corruption refuses exactly as {!load}
    does. [t] does not keep the report: a long-lived supervisor holds
    only what it takes from it. *)

val open_append : ?sync:sync -> ?compact_ratio:float -> string -> (t, string) result
(** {!open_load} without the entries. *)

val append : t -> entry -> unit
(** Frames and appends one record, then runs the single sync point:
    flush always, [Unix.fsync] per the open's [sync] policy. Observed in
    the [runner.journal_append_s] histogram (and [journal.fsync_s] for
    the fsync part). Crash sites [journal.pre_append],
    [journal.pre_fsync] and [journal.post_append] fire here (see
    {!Resilience.Faults.crash_site}). *)

val append_done : t -> id:string -> digest:string -> reply_json:string -> unit
(** [append t (Done { id; digest; reply })] for a reply already encoded
    as its line [reply_json] ([Cert.Proto.reply_to_json reply], or a worker's
    line restamped with {!Cert.Proto.restamp}: the same bytes). The record is
    built around those bytes, so a settled reply is encoded once for the
    journal and its reader together. This is how the supervisor engine
    writes every [Done] record. Same framing, sync point and crash sites
    as {!append}. *)

val close : t -> unit
(** Flushes, releases the lock, closes. *)

type compact_stats = {
  kept : int;  (** records in the rewritten journal *)
  dropped : int;
  before_bytes : int;
  after_bytes : int;
}

val compact : string -> (compact_stats, string) result
(** Rewrites the journal to only the last [Done] record per job id,
    resequenced from 1, via write-temp + fsync + rename (+ directory
    fsync), so a crash at any point leaves either the old or the new
    journal intact — never a mix (crash site [journal.mid_compact] fires
    between the temp fsync and the rename). Takes the same exclusive
    lock as {!open_append} and refuses what {!load} refuses. Timed in
    the [journal.compact_s] histogram. *)
