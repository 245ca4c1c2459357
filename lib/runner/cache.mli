(** Certificate-gated LRU result cache for the serve loop.

    Settled replies are kept as the bytes that were sent, keyed by
    {!Journal.canonical_digest} — the job with its id blanked — so two
    clients submitting the same work under different ids share one
    entry. The safety argument is the portable certificates
    ({!Cert.Certificate}): a stored reply is served only after
    [Cert.Checker.check_reply] re-validates it at lookup time, so a hit
    can never hand out an answer the independent checker would refuse,
    no matter how the entry got into the cache (computed this run,
    seeded from a journal on startup, or tampered with on disk). An
    entry whose bytes do not decode or whose certificate fails is
    evicted and the job recomputes.

    Sizing is by entry count with least-recently-used eviction; error
    replies are never stored. Metrics: [cache.hits], [cache.misses],
    [cache.evictions], [cache.cert_rejects] (each reject also emits a
    reason-coded [cache.cert_reject] trace instant), and the
    [cache.entries] gauge. *)

type t

type lookup =
  | Hit of { reply : Cert.Proto.reply; line : string }
      (** certificate re-checked; id rewritten to the requester's,
          [wall_s] zeroed (no supervisor time was spent). [line] is the
          stored bytes with that head ({!Cert.Proto.restamp}): what the
          requester is sent, encoded without touching the certificate. *)
  | Miss
  | Cert_reject of string
      (** an entry existed but its bytes did not decode or its
          certificate failed re-checking; it has been evicted and the
          payload is the decoder's or checker's reason. The caller must
          recompute, exactly as on [Miss]. *)

val create : entries:int -> t
(** An LRU cache holding at most [entries] replies. [entries <= 0]
    disables caching: {!find} always misses (without counting) and
    {!store} is a no-op. *)

val length : t -> int
val enabled : t -> bool

val find : t -> digest:string -> id:string -> lookup
(** Looks up the canonical digest and re-checks the stored certificate
    (see the safety argument above). An entry's bytes are decoded on its
    first hit, and the decoded reply is kept for later hits; every hit
    re-checks the certificate. A [Hit] refreshes recency. *)

val store : t -> digest:string -> ?line:string -> Cert.Proto.reply -> unit
(** Inserts or refreshes an entry, evicting the least recently used
    entries beyond capacity. With [line], which must be the reply's
    bytes as sent, the entry holds those bytes and not the decoded
    reply; a serve journal seeds the cache with its records' reply bytes
    ({!Journal.settled}). Without it, the entry keeps the reply and
    encodes it on its first hit. Error replies
    ([V_failed]) are ignored —
    they describe circumstance, not the job's answer. Certificates are
    {e not} checked here; the gate sits at {!find}, once, on the serving
    path. *)
