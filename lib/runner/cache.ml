open Proto

let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_evictions = Obs.Metrics.counter "cache.evictions"
let m_cert_rejects = Obs.Metrics.counter "cache.cert_rejects"
let m_entries = Obs.Metrics.gauge "cache.entries"

(* Intrusive doubly-linked LRU list over the hash table's nodes: both
   lookup and eviction stay O(1), and the table is the single owner of
   every node (the list never holds a key the table lacks). An entry
   stored with its reply's bytes holds just those, about a tenth of the
   decoded reply's memory, and decodes them on its first hit only. One
   stored from a decoded reply (a journal seed) keeps that reply and is
   encoded on its first hit, so seeding costs no encode. *)
type node = {
  key : string;
  mutable line : string Lazy.t;
  mutable decoded : reply option;  (** [line] decoded *)
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;  (** least recently used, next to evict *)
}

type lookup = Hit of { reply : reply; line : string } | Miss | Cert_reject of string

let create ~entries =
  { cap = entries; tbl = Hashtbl.create (max 16 entries); head = None; tail = None }

let length t = Hashtbl.length t.tbl
let enabled t = t.cap > 0

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let remove t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  Obs.Metrics.set m_entries (float_of_int (length t))

(* The cache-safety gate: a stored reply is served only after its bytes
   decode and its certificate re-checks, so a hit can never hand a client
   an answer the independent checker would refuse — no matter how the
   entry got here (computed this run, seeded from a journal, or tampered
   on disk). A failing entry is dropped so the job recomputes instead. *)
let find t ~digest ~id =
  if not (enabled t) then Miss
  else
    match Hashtbl.find_opt t.tbl digest with
    | None ->
        Obs.Metrics.incr m_misses;
        Miss
    | Some n -> begin
        let checked =
          Result.bind
            (match n.decoded with Some r -> Ok r | None -> reply_of_json (Lazy.force n.line))
            (fun r ->
              Obs.Trace.with_span
                ~args:[ ("digest", Json.Str digest) ]
                "cert-check"
                (fun () -> Result.map (fun () -> r) (Cert.Checker.check_reply r)))
        in
        match checked with
        | Ok r ->
            n.decoded <- Some r;
            unlink t n;
            push_front t n;
            Obs.Metrics.incr m_hits;
            Hit
              {
                reply = { r with id; wall_s = 0. };
                line = restamp (Lazy.force n.line) r ~id ~attempts:r.attempts ~wall_s:0.;
              }
        | Error reason ->
            remove t n;
            Obs.Metrics.incr m_cert_rejects;
            Obs.Trace.instant "cache.cert_reject"
              ~args:[ ("digest", Json.Str digest); ("reason", Json.Str reason) ];
            Obs.Log.warn "cache-cert-reject"
              [ ("digest", Json.Str digest); ("reason", Json.Str reason) ];
            Cert_reject reason
      end

(* Error replies are never cached (they are circumstance, not answers),
   and neither run nor seed time re-checks certificates here: the gate is
   at {!find}, once, on the serving path. *)
let store t ~digest ?line reply =
  if enabled t then
    match reply.verdict with
    | V_failed _ -> ()
    | V_exact _ | V_bounded _ -> begin
        let line, decoded =
          match line with
          | Some l -> (Lazy.from_val l, None)
          | None -> (lazy (reply_to_json reply), Some reply)
        in
        (match Hashtbl.find_opt t.tbl digest with
        | Some n ->
            n.line <- line;
            n.decoded <- decoded;
            unlink t n;
            push_front t n
        | None ->
            let n = { key = digest; line; decoded; prev = None; next = None } in
            Hashtbl.replace t.tbl digest n;
            push_front t n;
            while length t > t.cap do
              match t.tail with
              | Some lru ->
                  remove t lru;
                  Obs.Metrics.incr m_evictions
              | None -> ()
            done);
        Obs.Metrics.set m_entries (float_of_int (length t))
      end
