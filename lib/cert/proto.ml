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

(* ---- jobs ---- *)

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

(* ---- replies and classification records ---- *)

let add_value b = function
  | Value.Finite n -> Json.add_int b n
  | Value.Infinite -> Json.add_string b "inf"

let member b name add v =
  Json.add_member b name;
  add b v

let add_witness b = Option.iter (member b "witness" (Json.add_list Json.add_int))
let add_cert b = Option.iter (member b "cert" Certificate.add)

(* The head of every reply: the members a supervisor restamps when it
   settles a worker's reply, first and in this order, so that
   [reply_head] below is a prefix of [reply_to_json]. *)
let add_head b (r : reply) =
  Buffer.add_string b {|{"v":|};
  Json.add_int b schema_version;
  member b "id" Json.add_string r.id;
  member b "attempts" Json.add_int r.attempts;
  member b "steps" Json.add_int r.steps;
  member b "wall_s" Json.add_float r.wall_s

(* [stages] is emitted only when non-empty, so untraced replies are
   byte-identical to the pre-telemetry schema. *)
let add_stages b = function
  | [] -> ()
  | (k, v) :: sts ->
      Json.add_member b "stages";
      Buffer.add_char b '{';
      Json.add_key b k;
      Json.add_float b v;
      List.iter (fun (k, v) -> member b k Json.add_float v) sts;
      Buffer.add_char b '}'

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

let reply_to_json (r : reply) =
  let b = Buffer.create 1024 in
  add_head b r;
  add_stages b r.stages;
  Option.iter (member b "trace" Json.add_string) r.trace;
  (match r.verdict with
  | V_exact { value; algorithm; witness } ->
      member b "outcome" Json.add_string "exact";
      member b "value" add_value value;
      member b "algorithm" Json.add_string algorithm;
      add_witness b witness
  | V_bounded { lower; upper; witness; reason } ->
      member b "outcome" Json.add_string "bounded";
      member b "lower" add_value lower;
      member b "upper" add_value upper;
      member b "reason" Json.add_string reason;
      add_witness b witness
  | V_failed { kind; message; retriable } ->
      member b "outcome" Json.add_string "error";
      member b "kind" Json.add_string kind;
      member b "message" Json.add_string message;
      member b "retriable" add_bool retriable);
  add_cert b r.cert;
  Buffer.add_char b '}';
  Buffer.contents b

(* [reply_to_json r] up to the end of its [wall_s] value. *)
let reply_head r =
  let b = Buffer.create 128 in
  add_head b r;
  Buffer.contents b

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

let classification_to_json (c : classification) =
  let b = Buffer.create 1024 in
  Buffer.add_string b {|{"v":|};
  Json.add_int b schema_version;
  member b "kind" Json.add_string "classification";
  member b "language" Json.add_string c.c_language;
  member b "verdict" Json.add_string c.c_verdict;
  add_cert b c.c_cert;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- decoding jobs ---- *)

let field_err what = Error (Printf.sprintf "missing or ill-typed field %S" what)

let get obj what conv = match Option.bind (Json.member what obj) conv with
  | Some v -> Ok v
  | None -> field_err what

let get_opt obj what conv =
  match Json.member what obj with
  | None | Some Json.Null -> Ok None
  | Some v -> ( match conv v with Some v -> Ok (Some v) | None -> field_err what)

let ( let* ) = Result.bind

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

(* ---- reading replies and classification records ---- *)

type record = Reply of reply | Classification of classification

let got what = function Json.Got v -> Ok v | Json.Absent | Json.Ill -> field_err what

(* For the members that may be absent or [null]. *)
let got_opt what = function Json.Absent -> Ok None | Json.Got v -> Ok v | Json.Ill -> field_err what

let check_version = function
  | Json.Absent -> Ok ()
  | Json.Got v when v = schema_version -> Ok ()
  | Json.Got v ->
      Error
        (Printf.sprintf "unsupported reply schema version %d (this reader understands v%d)" v
           schema_version)
  | Json.Ill -> field_err "v"

let value r =
  if Json.peek r <> '"' then Value.Finite (Json.int r)
  else if Json.str r = "inf" then Value.Infinite
  else begin
    Json.ill r;
    Value.Infinite
  end

(* Every member a reply or a classification record can hold is read into
   its slot in one pass. The two finishers check the slots in their own
   order; the first of duplicated members counts, and [kind] tells a
   classification record from a failed reply's error kind. *)
let read_members r =
  let slot () = ref Json.Absent in
  let v = slot () and id = slot () and attempts = slot () and steps = slot () in
  let wall_s = slot () and stages = slot () and trace = slot () and outcome = slot () in
  let value_ = slot () and algorithm = slot () and witness = slot () and lower = slot () in
  let upper = slot () and reason = slot () and kind = slot () and message = slot () in
  let retriable = slot () and language = slot () and verdict = slot () and cert = slot () in
  let witness_list = Json.nullable (Json.list Json.int) in
  Json.fields r (function
    | "v" -> Json.fill r v Json.int
    | "id" -> Json.fill r id Json.str
    | "attempts" -> Json.fill r attempts Json.int
    | "steps" -> Json.fill r steps Json.int
    | "wall_s" -> Json.fill r wall_s Json.float
    | "stages" -> Json.fill r stages (Json.nullable (Json.assoc Json.float))
    | "trace" -> Json.fill r trace (Json.nullable Json.str)
    | "outcome" -> Json.fill r outcome Json.str
    | "value" -> Json.fill r value_ value
    | "algorithm" -> Json.fill r algorithm Json.str
    | "witness" -> Json.fill r witness witness_list
    | "lower" -> Json.fill r lower value
    | "upper" -> Json.fill r upper value
    | "reason" -> Json.fill r reason Json.str
    | "kind" -> Json.fill r kind Json.str
    | "message" -> Json.fill r message Json.str
    | "retriable" -> Json.fill r retriable Json.bool
    | "language" -> Json.fill r language Json.str
    | "verdict" -> Json.fill r verdict Json.str
    | "cert" -> Json.fill r cert (Json.nullable Certificate.read)
    | _ -> Json.skip r);
  let cert () =
    let* c = got_opt "cert" !cert in
    match c with None -> Ok None | Some c -> Result.map Option.some c
  in
  let reply () =
    let* () = check_version !v in
    let* id = got "id" !id in
    let* attempts = got "attempts" !attempts in
    let* steps = got "steps" !steps in
    let* wall_s = got "wall_s" !wall_s in
    let* stages = got_opt "stages" !stages in
    let stages = Option.value stages ~default:[] in
    let* trace = got_opt "trace" !trace in
    let* outcome = got "outcome" !outcome in
    let* verdict =
      match outcome with
      | "exact" ->
          let* value = got "value" !value_ in
          let* algorithm = got "algorithm" !algorithm in
          let* witness = got_opt "witness" !witness in
          Ok (V_exact { value; algorithm; witness })
      | "bounded" ->
          let* lower = got "lower" !lower in
          let* upper = got "upper" !upper in
          let* reason = got "reason" !reason in
          let* witness = got_opt "witness" !witness in
          Ok (V_bounded { lower; upper; witness; reason })
      | "error" ->
          let* kind = got "kind" !kind in
          let* message = got "message" !message in
          let* retriable = got "retriable" !retriable in
          Ok (V_failed { kind; message; retriable })
      | other -> Error (Printf.sprintf "unknown outcome %S" other)
    in
    let* cert = cert () in
    Ok { id; attempts; steps; wall_s; stages; trace; verdict; cert }
  in
  let classification () =
    let* () = check_version !v in
    let* c_language = got "language" !language in
    let* c_verdict = got "verdict" !verdict in
    let* c_cert = cert () in
    Ok { c_language; c_verdict; c_cert }
  in
  (!kind, reply, classification)

let read_reply r =
  let _, reply, _ = read_members r in
  reply ()

let read_record r =
  match read_members r with
  | Json.Got "classification", _, classification ->
      Result.map (fun c -> Classification c) (classification ())
  | _, reply, _ -> Result.map (fun x -> Reply x) (reply ())

let reply_of_json s = Result.join (Json.read s read_reply)

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
