(* The reply schema is versioned: every emitted reply and classification
   record carries ["v":1]. Readers accept a missing [v] (pre-versioning
   v1 journals) and reject anything else, so future schema changes fail
   loudly instead of being silently misread. *)
let schema_version = 1

type budget_spec = { deadline : float option; steps : int option; memo_cap : int option }

let no_budget = { deadline = None; steps = None; memo_cap = None }

type job = {
  id : string;
  db : string;
  query : string;
  budget : budget_spec;
  faults : string option;
  deadline_ms : int option;
      (** end-to-end client deadline, milliseconds from submission; a
          hop-scoped delivery constraint like [trace], never part of the
          job's canonical form *)
  priority : string;
      (** admission class, one of {!priorities}; hop-scoped like [trace] *)
  trace : string option;
      (** serialized [Obs.Trace.span_ctx] — request identity propagated
          across process hops; never part of the job's canonical form *)
}

(* The closed admission vocabulary, lowest class first. Decoding rejects
   anything outside it so a typo ("interactve") fails loudly at the edge
   instead of silently scheduling as the default class. *)
let priorities = [ "batch"; "normal"; "interactive" ]
let default_priority = "normal"

let priority_class p =
  match p with "batch" -> 0 | "interactive" -> 2 | _ (* "normal" *) -> 1

type verdict =
  | V_exact of { value : Value.t; algorithm : string; witness : int list option }
  | V_bounded of { lower : Value.t; upper : Value.t; witness : int list option; reason : string }
  | V_failed of { kind : string; message : string; retriable : bool }

type reply = {
  id : string;
  attempts : int;
  steps : int;
  wall_s : float;
  stages : (string * float) list;
  trace : string option;
      (** the worker-side job span's context, so a reply can be joined
          to its spans in a stitched trace; absent when untraced *)
  verdict : verdict;
  cert : Certificate.t option;
}

type classification = {
  c_language : string;
  c_verdict : string;
  c_cert : Certificate.t option;
}

let failed ?(retriable = false) ~id ~kind fmt =
  Printf.ksprintf
    (fun message ->
      {
        id;
        attempts = 1;
        steps = 0;
        wall_s = 0.0;
        stages = [];
        trace = None;
        verdict = V_failed { kind; message; retriable };
        cert = None;
      })
    fmt

(* ---- encoding ---- *)

let value_to_json = function Value.Finite n -> Json.Int n | Value.Infinite -> Json.Str "inf"

let value_of_json = function
  | Json.Int n -> Some (Value.Finite n)
  | Json.Str "inf" -> Some Value.Infinite
  | _ -> None

let opt field conv = function None -> [] | Some v -> [ (field, conv v) ]

let budget_fields b =
  opt "timeout" (fun f -> Json.Float f) b.deadline
  @ opt "steps" (fun i -> Json.Int i) b.steps
  @ opt "memo_cap" (fun i -> Json.Int i) b.memo_cap

(* Jobs are deliberately unversioned: their canonical rendering is the
   journal key ([Journal.job_digest]), so it must stay byte-stable. The
   trace context is deliberately NOT part of it — two submissions of the
   same job under different trace ids are the same job to the journal
   and the cache. *)
let job_to_json (j : job) =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str j.id); ("query", Json.Str j.query); ("db", Json.Str j.db) ]
       @ budget_fields j.budget
       @ opt "faults" (fun s -> Json.Str s) j.faults))

(* The wire form adds the hop-scoped fields the canonical form excludes:
   what travels client -> serve -> worker pipe. [priority] is emitted
   only when it differs from the default, so pre-priority clients and
   servers exchange byte-identical lines. *)
let job_to_wire_json (j : job) =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str j.id); ("query", Json.Str j.query); ("db", Json.Str j.db) ]
       @ budget_fields j.budget
       @ opt "faults" (fun s -> Json.Str s) j.faults
       @ opt "deadline_ms" (fun i -> Json.Int i) j.deadline_ms
       @ (if j.priority = default_priority then [] else [ ("priority", Json.Str j.priority) ])
       @ opt "trace" (fun s -> Json.Str s) j.trace))

let witness_fields = function
  | None -> []
  | Some w -> [ ("witness", Json.List (List.map (fun i -> Json.Int i) w)) ]

(* Emitted only when non-empty, so untraced replies are byte-identical to
   the pre-telemetry schema. *)
let stages_fields = function
  | [] -> []
  | sts -> [ ("stages", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sts)) ]

let cert_fields = function None -> [] | Some c -> [ ("cert", Certificate.to_obj c) ]

(* The head of every reply: the members a supervisor restamps when it
   settles a worker's reply, first and in this order, so that
   [reply_head] below is a prefix of [reply_to_json]. *)
let head_fields (r : reply) =
  [
    ("v", Json.Int schema_version);
    ("id", Json.Str r.id);
    ("attempts", Json.Int r.attempts);
    ("steps", Json.Int r.steps);
    ("wall_s", Json.Float r.wall_s);
  ]

let reply_to_obj (r : reply) =
  let common =
    head_fields r
    @ stages_fields r.stages
    @ opt "trace" (fun s -> Json.Str s) r.trace
  in
  let rest =
    match r.verdict with
    | V_exact { value; algorithm; witness } ->
        [
          ("outcome", Json.Str "exact");
          ("value", value_to_json value);
          ("algorithm", Json.Str algorithm);
        ]
        @ witness_fields witness
    | V_bounded { lower; upper; witness; reason } ->
        [
          ("outcome", Json.Str "bounded");
          ("lower", value_to_json lower);
          ("upper", value_to_json upper);
          ("reason", Json.Str reason);
        ]
        @ witness_fields witness
    | V_failed { kind; message; retriable } ->
        [
          ("outcome", Json.Str "error");
          ("kind", Json.Str kind);
          ("message", Json.Str message);
          ("retriable", Json.Bool retriable);
        ]
  in
  Json.Obj (common @ rest @ cert_fields r.cert)

let reply_to_json r = Json.to_string (reply_to_obj r)

(* [reply_to_json r] up to the end of its [wall_s] value. *)
let reply_head r =
  let s = Json.to_string (Json.Obj (head_fields r)) in
  String.sub s 0 (String.length s - 1)

(* The head's last value is a number, so the byte after it must end it:
   a line spelling [wall_s] as 0.50 has the canonical 0.5 as a prefix. *)
let restamp line (r : reply) ~id ~attempts ~wall_s =
  let settled = { r with id; attempts; wall_s } in
  let old = reply_head r in
  let ol = String.length old in
  if String.starts_with ~prefix:old line && String.length line > ol && line.[ol] = ',' then begin
    let head = reply_head settled in
    let hl = String.length head and rest = String.length line - ol in
    let b = Bytes.create (hl + rest) in
    Bytes.blit_string head 0 b 0 hl;
    Bytes.blit_string line ol b hl rest;
    Bytes.unsafe_to_string b
  end
  else reply_to_json settled

let classification_to_obj (c : classification) =
  Json.Obj
    ([
       ("v", Json.Int schema_version);
       ("kind", Json.Str "classification");
       ("language", Json.Str c.c_language);
       ("verdict", Json.Str c.c_verdict);
     ]
    @ cert_fields c.c_cert)

let classification_to_json c = Json.to_string (classification_to_obj c)

(* ---- decoding ---- *)

let field_err what = Error (Printf.sprintf "missing or ill-typed field %S" what)

let get obj what conv = match Option.bind (Json.member what obj) conv with
  | Some v -> Ok v
  | None -> field_err what

let get_opt obj what conv =
  match Json.member what obj with
  | None | Some Json.Null -> Ok None
  | Some v -> ( match conv v with Some v -> Ok (Some v) | None -> field_err what)

let ( let* ) = Result.bind

let check_version obj =
  match Json.member "v" obj with
  | None -> Ok ()
  | Some (Json.Int v) when v = schema_version -> Ok ()
  | Some (Json.Int v) ->
      Error
        (Printf.sprintf "unsupported reply schema version %d (this reader understands v%d)" v
           schema_version)
  | Some _ -> field_err "v"

let job_of_obj obj =
  let* id = get obj "id" Json.to_str_opt in
  let* query = get obj "query" Json.to_str_opt in
  let* db = get obj "db" Json.to_str_opt in
  let* deadline = get_opt obj "timeout" Json.to_float_opt in
  let* steps = get_opt obj "steps" Json.to_int_opt in
  let* memo_cap = get_opt obj "memo_cap" Json.to_int_opt in
  let* faults = get_opt obj "faults" Json.to_str_opt in
  let* deadline_ms = get_opt obj "deadline_ms" Json.to_int_opt in
  let* () =
    match deadline_ms with
    | Some ms when ms < 0 -> Error (Printf.sprintf "negative deadline_ms %d" ms)
    | _ -> Ok ()
  in
  let* priority =
    match Json.member "priority" obj with
    | None | Some Json.Null -> Ok default_priority
    | Some v -> (
        match Json.to_str_opt v with
        | Some p when List.mem p priorities -> Ok p
        | Some p ->
            Error
              (Printf.sprintf "unknown priority %S (expected %s)" p (String.concat "|" priorities))
        | None -> field_err "priority")
  in
  let* trace = get_opt obj "trace" Json.to_str_opt in
  Ok { id; db; query; budget = { deadline; steps; memo_cap }; faults; deadline_ms; priority; trace }

let job_of_json s =
  let* v = Json.parse s in
  job_of_obj v

let witness_of obj =
  match Json.member "witness" obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.List items) ->
      let ints = List.filter_map Json.to_int_opt items in
      if List.length ints = List.length items then Ok (Some ints) else field_err "witness"
  | Some _ -> field_err "witness"

let stages_of obj =
  match Json.member "stages" obj with
  | None | Some Json.Null -> Ok []
  | Some (Json.Obj fields) ->
      let parsed =
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v)) fields
      in
      if List.length parsed = List.length fields then Ok parsed else field_err "stages"
  | Some _ -> field_err "stages"

let cert_of obj =
  match Json.member "cert" obj with
  | None | Some Json.Null -> Ok None
  | Some v ->
      let* c = Certificate.of_obj v in
      Ok (Some c)

let reply_of_obj obj =
  let* () = check_version obj in
  let* id = get obj "id" Json.to_str_opt in
  let* attempts = get obj "attempts" Json.to_int_opt in
  let* steps = get obj "steps" Json.to_int_opt in
  let* wall_s = get obj "wall_s" Json.to_float_opt in
  let* stages = stages_of obj in
  let* trace = get_opt obj "trace" Json.to_str_opt in
  let* outcome = get obj "outcome" Json.to_str_opt in
  let* verdict =
    match outcome with
    | "exact" ->
        let* value = get obj "value" value_of_json in
        let* algorithm = get obj "algorithm" Json.to_str_opt in
        let* witness = witness_of obj in
        Ok (V_exact { value; algorithm; witness })
    | "bounded" ->
        let* lower = get obj "lower" value_of_json in
        let* upper = get obj "upper" value_of_json in
        let* reason = get obj "reason" Json.to_str_opt in
        let* witness = witness_of obj in
        Ok (V_bounded { lower; upper; witness; reason })
    | "error" ->
        let* kind = get obj "kind" Json.to_str_opt in
        let* message = get obj "message" Json.to_str_opt in
        let* retriable = get obj "retriable" (function Json.Bool b -> Some b | _ -> None) in
        Ok (V_failed { kind; message; retriable })
    | other -> Error (Printf.sprintf "unknown outcome %S" other)
  in
  let* cert = cert_of obj in
  Ok { id; attempts; steps; wall_s; stages; trace; verdict; cert }

let reply_of_json s =
  let* v = Json.parse s in
  reply_of_obj v

let classification_of_obj obj =
  let* () = check_version obj in
  let* kind = get obj "kind" Json.to_str_opt in
  let* () = if kind = "classification" then Ok () else Error "not a classification record" in
  let* c_language = get obj "language" Json.to_str_opt in
  let* c_verdict = get obj "verdict" Json.to_str_opt in
  let* c_cert = cert_of obj in
  Ok { c_language; c_verdict; c_cert }

let classification_of_json s =
  let* v = Json.parse s in
  classification_of_obj v

(* [wall_s] and [stages] are both wall-clock measurements: legitimately
   different across otherwise-identical runs, so both are excluded. The
   certificate is excluded too — its LP duals round-trip through a %.9g
   float rendering, so the in-memory and journal-loaded copies of the
   same reply may differ in the last ulp; certificate agreement is
   established by re-checking, not by comparison. *)
let reply_equal_ignoring_time (a : reply) (b : reply) =
  a.id = b.id && a.attempts = b.attempts && a.steps = b.steps && a.verdict = b.verdict

let verdict_name = function
  | V_exact _ -> "exact"
  | V_bounded _ -> "bounded"
  | V_failed _ -> "error"
