(* Structured, leveled, reason-coded logging. One JSON object per line:

     {"lvl":"warn","event":"worker-death","ts":…,"id":"j1","death":"crash"}

   The [event] field is a stable reason code (kebab-case), the rest are
   key/value context — greppable, and parseable with the same JSON
   grammar as every other telemetry surface ([Cert.Json]). This module
   is the only place outside [bin/] allowed to write to stderr (enforced
   by the rpq_lint stderr-confinement rule). *)

module Json = Cert.Json

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* [None] = logging off entirely. Default: warnings and errors only, to
   stderr — library code may log freely without polluting the stdout
   protocol surfaces or the quiet default CLI experience. *)
let threshold : level option ref = ref (Some Warn)
let set_level l = threshold := l

let out : out_channel ref = ref stderr
let opened : out_channel option ref = ref None

let close_file () =
  match !opened with
  | None -> ()
  | Some oc ->
      opened := None;
      out := stderr;
      close_out_noerr oc

let set_file path =
  close_file ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  opened := Some oc;
  out := oc

(* RPQ_LOG grammar: [off] | LEVEL | LEVEL:PATH. *)
let configure_from_env () =
  match Sys.getenv_opt "RPQ_LOG" with
  | None -> ()
  | Some v -> begin
      let v = String.trim v in
      let lvl, path =
        match String.index_opt v ':' with
        | Some i -> (String.sub v 0 i, Some (String.sub v (i + 1) (String.length v - i - 1)))
        | None -> (v, None)
      in
      (match String.lowercase_ascii lvl with
      | "" | "off" | "none" | "0" -> threshold := None
      | l -> ( match level_of_string l with Some l -> threshold := Some l | None -> ()));
      match path with Some p when p <> "" -> set_file p | _ -> ()
    end

(* Repeat suppression, per reason code: the first few occurrences pass,
   then only power-of-two ones (tagged with the running count), so a
   wedged loop emitting the same event cannot flood the sink. Count-
   based rather than time-based keeps the policy deterministic. *)
let repeat_window = 4
let seen : (string, int) Hashtbl.t = Hashtbl.create 16

let admit event =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen event) in
  Hashtbl.replace seen event n;
  if n <= repeat_window || n land (n - 1) = 0 then Some n else None

let reset_repeats () = Hashtbl.reset seen

let record lvl event fields =
  let line =
    Json.Obj
      ([
         ("lvl", Json.Str (level_name lvl));
         ("event", Json.Str event);
         ("ts", Json.Float (Clock.now ()));
       ]
      @ fields)
  in
  (* The flight recorder sees every record, below-threshold or not: the
     ring is exactly for context you did not think you would need. *)
  Flight.note line;
  match !threshold with
  | Some t when severity lvl >= severity t -> begin
      match admit event with
      | None -> ()
      | Some n ->
          let line =
            if n <= repeat_window then line
            else
              match line with
              | Json.Obj fs -> Json.Obj (fs @ [ ("repeat", Json.Int n) ])
              | other -> other
          in
          output_string !out (Json.to_string line);
          output_char !out '\n';
          flush !out
    end
  | Some _ | None -> ()

let debug event fields = record Debug event fields
let info event fields = record Info event fields
let warn event fields = record Warn event fields
let error event fields = record Error event fields
