(* Trace-file validator: the checking half of the telemetry layer, kept
   in the library so tests exercise the same code path `rpq trace-check`
   runs in CI.

   A JSONL trace may be the concatenation of files from several
   processes (a traced client, the serve supervisor with its workers'
   re-emitted spans): each segment opens with a meta record whose [t0]
   (integer microseconds) re-anchors the relative timestamps that
   follow, so all spans land on one absolute time axis. Three families
   of checks:

   - every event parses (with the strict Proto JSON reader) and has the
     structural fields its type requires;
   - depth containment, per process: a depth-d+1 span lies inside some
     depth-d span of the same pid — the single-process well-nestedness
     the pre-propagation checker enforced;
   - parent containment, by identity: a span naming a [psid] must find
     that span in the file (else it is an orphan), share its trace id,
     and lie inside it on the absolute axis. Spans a dead worker never
     closed arrive synthesized with [interrupted:true] and must pass the
     same containment — their stop time is the supervisor's
     death-detection instant, inside the still-open job span. *)

module Json = Cert.Json

type span = {
  sname : string;
  sstart : float;  (* absolute seconds *)
  sstop : float;
  sdepth : int;
  spid : int;
  stid : string option;
  ssid : string option;
  spsid : string option;
}

type stats = {
  events : int;
  spans : int;
  processes : int;  (** distinct pids across spans and meta records *)
  traces : int;  (** distinct trace ids *)
}

(* Timestamps render with 9 significant digits and the epoch quantizes
   to 1 µs: allow a few µs of slack in every interval comparison. *)
let eps = 5e-6

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let get v f conv = Option.bind (Json.member f v) conv

(* ---- one event, JSONL form ---- *)

type parsed = P_meta of { pid : int option; t0 : float; tid : string option } | P_span of span | P_instant

let span_of_jsonl ~t0 v =
  match
    ( get v "name" Json.to_str_opt,
      get v "ts" Json.to_float_opt,
      get v "dur" Json.to_float_opt,
      get v "depth" Json.to_int_opt,
      get v "pid" Json.to_int_opt )
  with
  | Some sname, Some ts, Some dur, Some sdepth, Some spid ->
      Ok
        {
          sname;
          sstart = t0 +. ts;
          sstop = t0 +. ts +. dur;
          sdepth;
          spid;
          stid = get v "tid" Json.to_str_opt;
          ssid = get v "sid" Json.to_str_opt;
          spsid = get v "psid" Json.to_str_opt;
        }
  | _ -> Error "span event with missing or mistyped fields"

let parse_jsonl_event ~t0 v =
  match get v "ev" Json.to_str_opt with
  | Some "meta" -> begin
      match get v "t0" Json.to_float_opt with
      | Some us ->
          Ok (P_meta { pid = get v "pid" Json.to_int_opt; t0 = us *. 1e-6; tid = get v "tid" Json.to_str_opt })
      | None -> Error "meta event without a \"t0\" field"
    end
  | Some "span" ->
      let* s = span_of_jsonl ~t0 v in
      Ok (P_span s)
  | Some "instant" -> Ok P_instant
  | Some ev -> err "unexpected event type %S" ev
  | None -> Error "event without an \"ev\" field"

(* ---- one event, Chrome form (ids ride in args, µs timestamps) ---- *)

let parse_chrome_event v =
  let arg f conv = Option.bind (get v "args" Option.some) (fun a -> get a f conv) in
  match get v "ph" Json.to_str_opt with
  | Some "X" -> begin
      match
        ( get v "name" Json.to_str_opt,
          get v "ts" Json.to_float_opt,
          get v "dur" Json.to_float_opt,
          arg "depth" Json.to_int_opt,
          get v "pid" Json.to_int_opt )
      with
      | Some sname, Some ts, Some dur, Some sdepth, Some spid ->
          Ok
            (P_span
               {
                 sname;
                 sstart = ts /. 1e6;
                 sstop = (ts +. dur) /. 1e6;
                 sdepth;
                 spid;
                 stid = arg "tid" Json.to_str_opt;
                 ssid = arg "sid" Json.to_str_opt;
                 spsid = arg "psid" Json.to_str_opt;
               })
      | _ -> Error "complete (ph=X) event with missing or mistyped fields"
    end
  | Some "i" -> Ok P_instant
  | Some ph -> err "unexpected event phase %S" ph
  | None -> Error "event without a \"ph\" field"

(* ---- whole-file checks ---- *)

let contains p c = p.sstart -. eps <= c.sstart && c.sstop <= p.sstop +. eps

let check_depth_containment spans =
  let rec go = function
    | [] -> Ok ()
    | c :: rest ->
        if
          c.sdepth > 0
          && not
               (List.exists
                  (fun p -> p.spid = c.spid && p.sdepth = c.sdepth - 1 && contains p c)
                  spans)
        then
          err "span %S (pid %d, depth %d, ts %.6fs) is not contained in any depth-%d span"
            c.sname c.spid c.sdepth c.sstart (c.sdepth - 1)
        else go rest
  in
  go spans

let check_parents spans =
  let by_sid = Hashtbl.create 64 in
  List.iter
    (fun s -> match s.ssid with Some sid -> Hashtbl.replace by_sid sid s | None -> ())
    spans;
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> begin
        match c.spsid with
        | None -> go rest
        | Some psid -> begin
            match Hashtbl.find_opt by_sid psid with
            | None ->
                err "orphan span %S (pid %d, sid %s): parent %s is not in the trace" c.sname
                  c.spid
                  (Option.value ~default:"?" c.ssid)
                  psid
            | Some p ->
                if c.stid <> None && p.stid <> None && c.stid <> p.stid then
                  err "span %S and its parent %S are in different traces (%s vs %s)" c.sname
                    p.sname
                    (Option.value ~default:"?" c.stid)
                    (Option.value ~default:"?" p.stid)
                else if not (contains p c) then
                  err
                    "span %S [%.6f, %.6f] (pid %d) escapes its parent %S [%.6f, %.6f] (pid %d)"
                    c.sname c.sstart c.sstop c.spid p.sname p.sstart p.sstop p.spid
                else go rest
          end
      end
  in
  go spans

let finish_stats ~events ~spans ~pids ~tids =
  {
    events;
    spans = List.length spans;
    processes = List.length (List.sort_uniq compare pids);
    traces = List.length (List.sort_uniq compare tids);
  }

let check_events parsed =
  let spans = List.filter_map (function P_span s -> Some s | _ -> None) parsed in
  let pids =
    List.filter_map
      (function P_span s -> Some s.spid | P_meta { pid; _ } -> pid | P_instant -> None)
      parsed
  in
  let tids =
    List.filter_map
      (function P_span s -> s.stid | P_meta { tid; _ } -> tid | P_instant -> None)
      parsed
  in
  let* () = check_depth_containment spans in
  let* () = check_parents spans in
  Ok (finish_stats ~events:(List.length parsed) ~spans ~pids ~tids)

let check_jsonl_string contents =
  let lines = String.split_on_char '\n' contents in
  let rec parse_all acc t0 lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> parse_all acc t0 (lineno + 1) rest
    | line :: rest -> begin
        match Json.parse line with
        | Error e -> err "line %d: %s" lineno e
        | Ok v -> begin
            match parse_jsonl_event ~t0 v with
            | Error e -> err "line %d: %s" lineno e
            | Ok (P_meta m as p) -> parse_all (p :: acc) m.t0 (lineno + 1) rest
            | Ok p -> parse_all (p :: acc) t0 (lineno + 1) rest
          end
      end
  in
  let* parsed = parse_all [] 0.0 1 lines in
  check_events parsed

let check_chrome_string contents =
  let* v = Json.parse contents in
  match v with
  | Json.List evs ->
      let rec parse_all acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest ->
            let* p = parse_chrome_event e in
            parse_all (p :: acc) rest
      in
      let* parsed = parse_all [] evs in
      check_events parsed
  | _ -> Error "a Chrome trace must be one JSON array of events"

let check_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
      let res =
        if Filename.check_suffix path ".jsonl" then check_jsonl_string contents
        else check_chrome_string contents
      in
      (match res with Error e -> err "%s: %s" path e | ok -> ok)
