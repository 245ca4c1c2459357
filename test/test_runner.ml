(* Supervised execution layer: wire protocol roundtrips, journal recovery,
   retry/degradation policy, and deterministic kill/wedge supervision
   sweeps.

   Every job pins its own fault plan (at least "off"): the CI matrix runs
   this suite under ambient RPQ_FAULTS sweeps, and an inherited seeded plan
   would make worker budgets — and hence replies — nondeterministic. *)

open Resilience
module Ser = Graphdb.Serialize
module Proto = Runner.Proto
module Journal = Runner.Journal
module Cache = Runner.Cache

let check = Alcotest.(check bool)

(* ---- fixtures ---- *)

(* Two a-edges in series: query aa is satisfied by exactly one path, so
   resilience is 1 and every solver path is fast. *)
let easy_db = "s a m\nm a t\n"

(* The aa gadget on the complete graph K6 (the vertex-cover reduction of
   Definition 4.5): small enough to ship around, hard enough that branch
   and bound ticks a budget thousands of times. *)
let hard_db =
  let g = Graphs.Ugraph.complete 6 in
  let pre, _ = Gadgets.gadget_aa () in
  Ser.to_string (Gadgets.encode pre g)

(* Big enough that an exact solve cannot finish inside any deadline the
   tests hand out — exercises budget clamping without a timing race. The
   aa gadget on K12 needs more than 0.6 s to solve exactly on a 2-vCPU
   x86-64 container, while every stage still stops within a few ms of a
   150 ms deadline. On K8 the ILP stage finished exactly in 0.12 s. *)
let slow_db =
  let g = Graphs.Ugraph.complete 12 in
  let pre, _ = Gadgets.gadget_aa () in
  Ser.to_string (Gadgets.encode pre g)

let job ?(id = "j") ?(db = easy_db) ?(query = "aa") ?deadline ?steps ?memo_cap
    ?(faults = Some "off") ?deadline_ms ?(priority = Proto.default_priority) () =
  {
    Proto.id;
    db;
    query;
    budget = { Proto.deadline; steps; memo_cap };
    faults;
    deadline_ms;
    priority;
    trace = None;
  }

let quick_cfg =
  {
    Runner.default_config with
    Runner.workers = 2;
    retries = 3;
    backoff = 0.005;
    grace = 0.2;
  }

let verdict_of (r : Proto.reply) = r.Proto.verdict

let is_bounded r = match verdict_of r with Proto.V_bounded _ -> true | _ -> false
let is_exact r = match verdict_of r with Proto.V_exact _ -> true | _ -> false

let failure_kind r =
  match verdict_of r with Proto.V_failed { kind; _ } -> Some kind | _ -> None

(* ---- Proto ---- *)

let test_proto_roundtrip () =
  let jobs =
    [
      job ~id:"plain" ();
      job ~id:"full" ~db:hard_db ~deadline:1.5 ~steps:1000 ~memo_cap:4096
        ~faults:(Some "kill:5") ();
      job ~id:"none" ~faults:None ();
      job ~id:"weird \"id\"\n" ~db:"a\tb\\c\n\"quoted\"" ~query:"a|b*" ();
    ]
  in
  List.iter
    (fun j ->
      match Proto.job_of_json (Proto.job_to_json j) with
      | Ok j' -> check ("job roundtrip " ^ j.Proto.id) true (j = j')
      | Error e -> Alcotest.failf "job %s did not roundtrip: %s" j.Proto.id e)
    jobs;
  let replies =
    [
      {
        Proto.id = "e";
        attempts = 1;
        steps = 12;
        wall_s = 0.25;
        trace = None;
        stages = [ ("mincut", 0.2); ("parse", 0.01) ];
        verdict =
          Proto.V_exact
            { value = Cert.Value.Finite 3; algorithm = "mincut"; witness = Some [ 1; 2; 7 ] };
        cert = Some (Cert.Certificate.Trivial { why = "query-unsatisfied" });
      };
      {
        Proto.id = "b";
        attempts = 3;
        steps = 40;
        wall_s = 1.5;
        stages = [];
        trace = None;
        verdict =
          Proto.V_bounded
            { lower = Cert.Value.Finite 1; upper = Cert.Value.Infinite; witness = None; reason = "steps" };
        cert = None;
      };
      Proto.failed ~retriable:true ~id:"f" ~kind:"overloaded" "queue full (%d jobs)" 64;
    ]
  in
  List.iter
    (fun r ->
      match Proto.reply_of_json (Proto.reply_to_json r) with
      | Ok r' -> check ("reply roundtrip " ^ r.Proto.id) true (r = r')
      | Error e -> Alcotest.failf "reply %s did not roundtrip: %s" r.Proto.id e)
    replies;
  (* One line per message is what the pipe framing depends on. *)
  List.iter
    (fun j -> check "no raw newline in encoding" false (String.contains (Proto.job_to_json j) '\n'))
    jobs

let test_proto_rejects () =
  List.iter
    (fun s -> check ("rejected: " ^ s) true (Result.is_error (Proto.job_of_json s)))
    [
      "";
      "not json";
      "{\"id\":\"x\"}";
      "{\"id\":1,\"query\":\"a\",\"db\":\"\"}";
      "{\"id\":\"x\",\"query\":\"a\",\"db\":\"\"} trailing";
      "[1,2]";
    ];
  List.iter
    (fun s -> check ("rejected reply: " ^ s) true (Result.is_error (Proto.reply_of_json s)))
    [
      "{}";
      "{\"id\":\"x\",\"attempts\":1,\"steps\":0,\"wall_s\":0,\"outcome\":\"glorious\"}";
      "{\"id\":\"x\",\"attempts\":1,\"steps\":0,\"wall_s\":0,\"outcome\":\"exact\"}";
    ]

let prop_proto_job_roundtrip =
  let open QCheck in
  Test.make ~name:"proto: job json roundtrip" ~count:200
    (quad string string (option (int_range 1 100000)) (option string))
    (fun (id, db, steps, faults) ->
      let j =
        {
          Proto.id;
          db;
          query = "a*b";
          budget = { Proto.no_budget with steps };
          faults;
          deadline_ms = None;
          priority = Proto.default_priority;
          trace = None;
        }
      in
      Proto.job_of_json (Proto.job_to_json j) = Ok j)

(* ---- Proto.restamp: settling a reply from the worker's bytes ---- *)

let decode_exn line =
  match Proto.reply_of_json line with
  | Ok r -> r
  | Error e -> Alcotest.failf "reply %S does not decode: %s" line e

(* What the supervisor sent before it settled from the worker's bytes:
   the decoded reply, restamped and encoded again. *)
let reencoded line ~id ~attempts ~wall_s =
  Proto.reply_to_json { (decode_exn line) with Proto.id; attempts; wall_s }

let restamped line ~id ~attempts ~wall_s =
  Proto.restamp line (decode_exn line) ~id ~attempts ~wall_s

(* Worker lines of every shape the served benchmark workloads draw
   from, for seeds 901–903, each through the real worker handler: [ax*b]
   on flow grids and [ab|bc] on layered databases of widths 8–16, and
   the hard languages under a 2000-step budget. *)
let test_restamp_real_replies () =
  let module G = Graphdb.Generate in
  let line_of ?steps query db =
    Runner.worker_handler
      (Proto.job_to_wire_json
         (job ~id:"c0:w" ~db:(Ser.to_string db) ~query ?steps ~faults:(Some "off") ()))
  in
  let aa g =
    let pre, _ = Gadgets.gadget_aa () in
    line_of ~steps:2000 "aa" (Gadgets.encode pre g)
  in
  let lines =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun w ->
            [
              line_of "ax*b" (G.flow_grid ~width:w ~depth:w ~max_mult:3 ~seed ());
              line_of "ab|bc" (G.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~max_mult:3 ~seed ());
            ])
          [ 8; 9; 10; 11; 12; 13; 14; 15; 16 ]
        @ List.map aa Graphs.Ugraph.[ complete 4; complete 5; complete 6; path 12 ]
        @ [
            line_of ~steps:2000 "axb|cxd"
              (G.random ~nnodes:24 ~nfacts:160 ~alphabet:[ 'a'; 'b'; 'c'; 'd'; 'x' ] ~seed ());
            line_of ~steps:2000 "ab|bc|ca"
              (G.random ~nnodes:20 ~nfacts:120 ~alphabet:[ 'a'; 'b'; 'c' ] ~seed ());
            line_of ~steps:2000 "abcd|be"
              (G.random ~nnodes:24 ~nfacts:160 ~alphabet:[ 'a'; 'b'; 'c'; 'd'; 'e' ] ~seed ());
          ])
      [ 901; 902; 903 ]
  in
  List.iteri
    (fun i line ->
      let id = Printf.sprintf "r%d" i in
      let parent = reencoded line ~id ~attempts:2 ~wall_s:0.0123 in
      Alcotest.(check string)
        (id ^ ": restamped = re-encoded") parent
        (restamped line ~id ~attempts:2 ~wall_s:0.0123);
      (* Only a restamp that kept the worker's bytes keeps a trailing
         space: the equality above is not a full re-encode's. *)
      Alcotest.(check string)
        (id ^ ": bytes after the head kept") (parent ^ " ")
        (restamped (line ^ " ") ~id ~attempts:2 ~wall_s:0.0123))
    lines

let gen_reply =
  let open QCheck.Gen in
  (* [char] draws all 256 byte values. *)
  let bytes = string_size ~gen:char (int_bound 10) in
  let int = oneof [ small_signed_int; oneofl [ min_int; max_int; 0 ] ] in
  let ints = list_size (int_bound 5) int in
  let pairs = list_size (int_bound 4) (pair int int) in
  (* Finite, integral ones included; never -0.0, pinned on its own below. *)
  let float =
    map
      (fun f -> if f = 0.0 then 0.0 else f)
      (oneof
         [
           oneofl [ 0.0; 1.0; 3.0; -2.0; 100.0; 1e9; 1e20; 0.5; 1.5e-7; 123456.789 ];
           float_range (-1e6) 1e6;
         ])
  in
  let value = oneof [ map (fun n -> Cert.Value.Finite n) int; return Cert.Value.Infinite ] in
  let cap = oneof [ map (fun n -> Cert.Certificate.Fin n) int; return Cert.Certificate.Inf ] in
  let cert =
    let open Cert.Certificate in
    oneof
      [
        map (fun why -> Trivial { why }) bytes;
        (let* vertices = int and* source = int and* sink = int in
         let* edges = list_size (int_bound 5) (triple int int cap) in
         let* flow = ints and* cut_edges = ints and* fact_edges = pairs in
         let* forced = pairs and* weights = pairs and* inf_path = ints in
         return
           (Cut
              {
                vertices;
                source;
                sink;
                edges;
                flow;
                cut_edges;
                fact_edges;
                forced;
                weights;
                inf_path;
              }));
        (let* fact_weights = pairs
         and* covers = opt (list_size (int_bound 3) ints)
         and* dual = opt (list_size (int_bound 4) float) in
         return (Bounds { fact_weights; covers; dual }));
        (let* language = bytes and* words = list_size (int_bound 3) bytes in
         let* facts = list_size (int_bound 3) (quad int int bytes int) in
         let* f_in = int and* f_out = int and* path_length = int in
         let* matches = list_size (int_bound 3) ints and* condensed = list_size (int_bound 3) ints in
         return
           (Hardness { language; words; facts; f_in; f_out; matches; condensed; path_length }));
        map (fun algorithm -> Opaque { algorithm }) bytes;
      ]
  in
  let verdict =
    oneof
      [
        (let* value = value and* algorithm = bytes and* witness = opt ints in
         return (Proto.V_exact { value; algorithm; witness }));
        (let* lower = value and* upper = value and* witness = opt ints and* reason = bytes in
         return (Proto.V_bounded { lower; upper; witness; reason }));
        (let* kind = bytes and* message = bytes and* retriable = bool in
         return (Proto.V_failed { kind; message; retriable }));
      ]
  in
  let* id = bytes and* attempts = int and* steps = int and* wall_s = float in
  let* stages = list_size (int_bound 3) (pair bytes float) and* trace = opt bytes in
  let* verdict = verdict and* cert = opt cert in
  return { Proto.id; attempts; steps; wall_s; stages; trace; verdict; cert }

let prop_restamp_matches_reencode =
  QCheck.Test.make ~name:"proto: restamp gives the re-encoded bytes" ~count:1000
    (QCheck.make
       ~print:(fun (r, _, _, _) -> Proto.reply_to_json r)
       QCheck.Gen.(
         quad gen_reply
           (string_size ~gen:char (int_bound 10))
           small_signed_int
           (oneofl [ 0.0; 2.0; 0.25; 1e-9; 31.5 ])))
    (fun (r, id, attempts, wall_s) ->
      let line = Proto.reply_to_json r in
      let parent = reencoded line ~id ~attempts ~wall_s in
      String.equal (restamped line ~id ~attempts ~wall_s) parent
      && String.equal (restamped (line ^ " ") ~id ~attempts ~wall_s) (parent ^ " "))

(* A line whose head is not the canonical encoding of its decoded head
   settles with the re-encoded bytes. After the head, the worker's
   bytes are kept as written: they decode to the same reply. The one
   value whose encoding does not survive a decode is -0.0 ([-0] reads
   back as the int 0), so a zero dual written [-0] stays [-0]. *)
let test_restamp_noncanonical () =
  let line =
    Runner.worker_handler
      (Proto.job_to_wire_json (job ~id:"c0:x" ~db:"s a m\nm b t\ns b u\nu a t\n" ~query:"ab" ()))
  in
  let head_end =
    let key = {|,"stages":|} in
    let rec go i = if String.sub line i (String.length key) = key then i else go (i + 1) in
    go 0
  in
  let head = String.sub line 0 head_end and tail = String.sub line head_end (String.length line - head_end) in
  let settle l = (restamped l ~id:"x" ~attempts:2 ~wall_s:0.5, reencoded l ~id:"x" ~attempts:2 ~wall_s:0.5) in
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec go i = if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n) else go (i + 1) in
    go 0
  in
  let steps = match Proto.reply_of_json line with Ok r -> r.Proto.steps | Error e -> Alcotest.fail e in
  List.iter
    (fun (label, variant) ->
      let got, parent = settle variant in
      Alcotest.(check string) (label ^ ": the parent's bytes") parent got)
    [
      ("canonical", line);
      ("space after the brace", "{ " ^ String.sub line 1 (String.length line - 1));
      ("space inside the head", replace ~sub:{|,"attempts"|} ~by:{|, "attempts"|} line);
      ( "reordered head",
        Printf.sprintf {|{"id":"c0:x","v":1,"attempts":1,"steps":%d,"wall_s":0|} steps ^ tail );
      ("no version", Printf.sprintf {|{"id":"c0:x","attempts":1,"steps":%d,"wall_s":0|} steps ^ tail);
      ("wall_s spelled 0.00", head ^ ".00" ^ tail);
      ("attempts spelled 01", replace ~sub:{|"attempts":1|} ~by:{|"attempts":01|} line);
    ];
  let got, parent = settle (head ^ replace ~sub:{|"outcome":|} ~by:{|"outcome": |} tail) in
  check "a non-canonical tail is forwarded as written" true (got <> parent);
  check "and decodes to the parent's reply" true (decode_exn got = decode_exn parent);
  let r =
    {
      (decode_exn line) with
      Proto.cert =
        Some (Cert.Certificate.Bounds { fact_weights = [ (0, 1) ]; covers = None; dual = Some [ -0.0; 0.5 ] });
    }
  in
  let zero = Proto.reply_to_json r in
  let got, parent = settle zero in
  check "-0.0 is written -0" true (String.ends_with ~suffix:{|"dual":[-0,0.5]}}|} zero);
  check "the settled line keeps -0" true (String.ends_with ~suffix:{|"dual":[-0,0.5]}}|} got);
  check "the re-encoded line writes 0" true (String.ends_with ~suffix:{|"dual":[0,0.5]}}|} parent);
  check "both decode to the same reply" true (decode_exn got = decode_exn parent)

(* ---- Journal ---- *)

let with_temp f =
  let path = Filename.temp_file "rpq_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".tmp" ])
    (fun () -> f path)

let open_exn ?sync ?compact_ratio path =
  match Journal.open_append ?sync ?compact_ratio path with
  | Ok j -> j
  | Error e -> Alcotest.failf "open_append: %s" e

let load_exn path =
  match Journal.load path with
  | Ok rep -> rep
  | Error e -> Alcotest.failf "load: %s" e

(* A report's settled answers as (digest, reply) by id. *)
let completed (rep : Journal.report) =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter (fun id (s : Journal.settled) -> Hashtbl.replace tbl id (s.digest, s.reply)) rep.settled;
  tbl

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let contains s sub = index_of s sub <> None

module Trace = Obs.Trace

(* Run [f] with tracing routed to a temp JSONL file; return the file's
   bytes after [Trace.finish] has flushed the meta record and spans. *)
let with_traced f =
  with_temp (fun path ->
      Trace.configure ~format:Trace.Jsonl path;
      Fun.protect ~finally:Trace.finish f;
      read_file path)

(* The [request] spans a trace holds, as (span id, outcome). *)
let request_spans content =
  List.filter_map
    (fun line ->
      match Cert.Json.parse line with
      | Error _ -> None
      | Ok v ->
          let str k = Option.value ~default:"" (Option.bind (Cert.Json.member k v) Cert.Json.to_str_opt) in
          if str "ev" = "span" && str "name" = "request" then Some (str "sid", str "outcome")
          else None)
    (String.split_on_char '\n' content)

(* After a serve run: the admission gauges a stats line reports are back
   at 0, and every request span closed exactly once; [outcomes] judges
   their outcomes, sorted. *)
let check_request_exits label content outcomes =
  let gauge name = Obs.Metrics.get (Obs.Metrics.gauge name) in
  check (label ^ ": serve.queued back at 0") true (gauge "serve.queued" = 0.0);
  check (label ^ ": serve.inflight back at 0") true (gauge "serve.inflight" = 0.0);
  let spans = request_spans content in
  check (label ^ ": each request span closed once") true
    (List.length (List.sort_uniq compare (List.map fst spans)) = List.length spans);
  let got = List.sort compare (List.map snd spans) in
  if not (outcomes got) then
    Alcotest.failf "%s: unexpected request outcomes [%s]" label (String.concat "; " got)

let exactly xs got = got = List.sort compare xs

(* Byte offsets one past each '\n' — for a well-formed journal these are
   the header and record boundaries. *)
let line_ends s =
  let rec go i acc =
    match String.index_from_opt s i '\n' with
    | Some j -> go (j + 1) ((j + 1) :: acc)
    | None -> List.rev acc
  in
  go 0 []

let sample_reply = Proto.failed ~id:"a" ~kind:"crash" "boom"

let sample_entries =
  [
    Journal.Started { id = "a"; digest = "d1" };
    Journal.Done { id = "a"; digest = "d1"; reply = sample_reply };
    Journal.Started { id = "b"; digest = "d2" };
  ]

let write_journal ?(sync = Journal.Never) path entries =
  let j = open_exn ~sync path in
  List.iter (Journal.append j) entries;
  Journal.close j

let test_journal_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      (match Journal.load path with
      | Ok rep ->
          check "missing file is empty" true (rep.Journal.entries = [] && rep.Journal.records = 0)
      | Error e -> Alcotest.failf "missing file must load empty: %s" e);
      write_journal ~sync:Journal.Per_line path sample_entries;
      let rep = load_exn path in
      check "roundtrip" true (rep.Journal.entries = sample_entries);
      check "v2 header" true (String.starts_with ~prefix:"rpq-journal-v2\n" (read_file path));
      check "record count" true (rep.Journal.records = 3);
      check "sequence counted" true (rep.Journal.last_seq = 3);
      check "no torn tail" true (rep.Journal.torn = None && rep.Journal.torn_bytes = 0);
      (* Started records and superseded Dones are compactable. *)
      check "dead bytes accounted" true (rep.Journal.dead_bytes > 0);
      let tbl = completed rep in
      check "a settled" true (Hashtbl.find_opt tbl "a" = Some ("d1", sample_reply));
      check "the settled line is the journaled reply's bytes" true
        (Option.map (fun (s : Journal.settled) -> s.line) (Hashtbl.find_opt rep.settled "a")
        = Some (Proto.reply_to_json sample_reply));
      check "b pending" true (Hashtbl.find_opt tbl "b" = None);
      (* Reopening continues the sequence rather than restarting it. *)
      let j = open_exn path in
      Journal.append j (Journal.Started { id = "c"; digest = "d3" });
      Journal.close j;
      check "sequence continues across reopen" true ((load_exn path).Journal.last_seq = 4))

let test_journal_torn_tail () =
  with_temp (fun path ->
      write_journal path sample_entries;
      let whole = read_file path in
      (* Tear the final record: drop its last 3 bytes, as a crash between
         write and flush would. *)
      write_file path (String.sub whole 0 (String.length whole - 3));
      let rep = load_exn path in
      check "good prefix loads" true
        (rep.Journal.entries = [ List.nth sample_entries 0; List.nth sample_entries 1 ]);
      check "tail reported torn" true (rep.Journal.torn = Some Journal.Truncated);
      check "torn bytes measured" true (rep.Journal.torn_bytes > 0);
      (* open_append truncates the tail; the next append extends a clean
         prefix and the journal loads with no tear. *)
      let j = open_exn path in
      Journal.append j (Journal.Started { id = "c"; digest = "d3" });
      Journal.close j;
      let rep = load_exn path in
      check "append after tear is clean" true
        (rep.Journal.torn = None
        && rep.Journal.entries
           = [
               List.nth sample_entries 0;
               List.nth sample_entries 1;
               Journal.Started { id = "c"; digest = "d3" };
             ]))

(* Truncation at *every* byte offset must recover the longest intact
   record prefix — never refuse, never hallucinate a record. *)
let test_journal_truncate_every_byte () =
  with_temp (fun path ->
      write_journal path sample_entries;
      let whole = read_file path in
      let ends = line_ends whole in
      (match ends with
      | header_end :: record_ends ->
          for cut = 0 to String.length whole - 1 do
            write_file path (String.sub whole 0 cut);
            let expected =
              if cut < header_end then 0
              else List.length (List.filter (fun e -> e <= cut) record_ends)
            in
            match Journal.load path with
            | Error e -> Alcotest.failf "cut at byte %d refused: %s" cut e
            | Ok rep ->
                if rep.Journal.records <> expected then
                  Alcotest.failf "cut at byte %d: %d records, expected %d" cut
                    rep.Journal.records expected;
                if
                  rep.Journal.entries
                  <> List.filteri (fun i _ -> i < expected) sample_entries
                then Alcotest.failf "cut at byte %d: wrong entry prefix" cut
          done
      | [] -> Alcotest.fail "journal has no lines"))

let test_journal_checksum_flip () =
  with_temp (fun path ->
      write_journal path sample_entries;
      let whole = read_file path in
      let flip pos =
        let b = Bytes.of_string whole in
        Bytes.set b pos (if Bytes.get b pos = '}' then ')' else '}');
        write_file path (Bytes.to_string b)
      in
      (match line_ends whole with
      | [ _; e1; e2; _ ] ->
          (* Mid-file: corrupt the second record's payload (its final byte
             before the newline). Not a torn tail — refuse, with the line. *)
          flip (e2 - 2);
          (match Journal.load path with
          | Ok _ -> Alcotest.fail "mid-file checksum corruption must refuse"
          | Error e ->
              check "error names the file and line" true (contains e (path ^ ":3:"));
              check "error names the cause" true (contains e "checksum"));
          (* Final record: indistinguishable from a torn write — tolerated,
             reported as Bad_checksum, and only the tail is dropped. *)
          flip (String.length whole - 2);
          let rep = load_exn path in
          check "prefix survives a bad final checksum" true
            (rep.Journal.entries = [ List.nth sample_entries 0; List.nth sample_entries 1 ]);
          check "reported as bad checksum" true (rep.Journal.torn = Some Journal.Bad_checksum);
          ignore e1
      | _ -> Alcotest.fail "expected header + 3 records"))

let test_journal_sequence_regression () =
  with_temp (fun path ->
      write_journal path sample_entries;
      let whole = read_file path in
      match line_ends whole with
      | [ h; e1; e2; _ ] ->
          (* Swap records 2 and 3: each frame is individually valid, but
             the sequence regresses — replayed/reordered records must not
             load as if nothing happened. *)
          let sub a b = String.sub whole a (b - a) in
          write_file path
            (sub 0 h ^ sub h e1 ^ sub e2 (String.length whole) ^ sub e1 e2);
          (match Journal.load path with
          | Ok _ -> Alcotest.fail "sequence regression must refuse"
          | Error e -> check "error names the regression" true (contains e "sequence"))
      | _ -> Alcotest.fail "expected header + 3 records")

(* Only development builds ever wrote header-less (v1) journals. A
   non-empty file without the v2 header that is not a torn prefix of it
   is refused with a [path:1:] position by every entry point, and left
   untouched — never silently migrated or dropped. *)
let test_journal_unheadered_refuses () =
  with_temp (fun path ->
      let v1 = String.concat "" (List.map (fun e -> Journal.entry_to_json e ^ "\n") sample_entries) in
      List.iter
        (fun content ->
          write_file path content;
          let refused what = function
            | Ok _ -> Alcotest.failf "%s accepted header-less %S" what content
            | Error e -> check (what ^ " error carries path:1:") true (contains e (path ^ ":1:"))
          in
          refused "load" (Journal.load path);
          refused "open_append" (Result.map Journal.close (Journal.open_append path));
          refused "compact" (Journal.compact path);
          check "refused file left untouched" true (read_file path = content))
        [ v1; "rpq-journal-v3\n"; "garbage" ])

let test_journal_lock () =
  with_temp (fun path ->
      let j = open_exn path in
      (match Journal.open_append path with
      | Ok _ -> Alcotest.fail "double open_append must fail"
      | Error e -> check "second open reports the lock" true (contains e "lock"));
      Journal.close j;
      (* Released on close: a later supervisor can take over. *)
      let j2 = open_exn path in
      Journal.append j2 (Journal.Started { id = "a"; digest = "d" });
      Journal.close j2)

let test_journal_compact () =
  with_temp (fun path ->
      let r1 = Proto.failed ~id:"a" ~kind:"crash" "first" in
      let r2 = Proto.failed ~id:"a" ~kind:"crash" "second" in
      let entries =
        [
          Journal.Started { id = "a"; digest = "d" };
          Journal.Done { id = "a"; digest = "d"; reply = r1 };
          Journal.Done { id = "a"; digest = "d"; reply = r2 };
          Journal.Started { id = "b"; digest = "e" };
        ]
      in
      write_journal path entries;
      let before = load_exn path in
      (match Journal.compact path with
      | Error e -> Alcotest.failf "compact: %s" e
      | Ok s ->
          check "kept the last Done per id" true (s.Journal.kept = 1 && s.Journal.dropped = 3);
          check "bytes reclaimed" true (s.Journal.after_bytes < s.Journal.before_bytes);
          check "before_bytes is the old size" true (s.Journal.before_bytes = before.Journal.bytes));
      let rep = load_exn path in
      check "compacted to the settled answer" true
        (rep.Journal.entries = [ Journal.Done { id = "a"; digest = "d"; reply = r2 } ]);
      check "resequenced from 1" true (rep.Journal.last_seq = 1);
      check "nothing left to reclaim" true (rep.Journal.dead_bytes = 0);
      (* The settled map is invariant under compaction. *)
      check "last Done survives" true
        (Hashtbl.find_opt (completed rep) "a" = Some ("d", r2)))

let test_journal_auto_compact () =
  with_temp (fun path ->
      let dones n =
        List.init n (fun i ->
            Journal.Done
              { id = "a"; digest = "d"; reply = Proto.failed ~id:"a" ~kind:"crash" "v%d" i })
      in
      write_journal path (dones 10);
      check "mostly dead" true
        (let rep = load_exn path in
         float_of_int rep.Journal.dead_bytes >= 0.5 *. float_of_int rep.Journal.bytes);
      (* Crossing the dead-byte ratio triggers compaction on open. *)
      let j = open_exn ~compact_ratio:0.5 path in
      Journal.append j (Journal.Started { id = "b"; digest = "e" });
      Journal.close j;
      let rep = load_exn path in
      check "auto-compacted on open" true (rep.Journal.records = 2);
      check "latest answer survived" true
        (match Hashtbl.find_opt (completed rep) "a" with
        | Some (_, r) -> (
            match r.Proto.verdict with
            | Proto.V_failed { message; _ } -> contains message "v9"
            | _ -> false)
        | None -> false);
      (* Below the ratio, the journal is left alone. *)
      let before = (load_exn path).Journal.bytes in
      let j = open_exn ~compact_ratio:0.99 path in
      Journal.close j;
      check "no compaction below the ratio" true ((load_exn path).Journal.bytes = before))

(* Crash sites: under a programmatic plan ([with_plan]) the armed site
   raises [Faults.Crash], and the journal must stay loadable afterwards —
   the same invariant `rpq chaos` checks process-externally via _exit. *)
let expect_crash site f =
  match f () with
  | _ -> Alcotest.failf "expected a crash at %s" site
  | exception Faults.Crash s -> check ("crash fired at " ^ site) true (s = site)

let test_journal_crash_sites () =
  with_temp (fun path ->
      let e1 = Journal.Started { id = "a"; digest = "d" } in
      let e2 = Journal.Done { id = "a"; digest = "d"; reply = sample_reply } in
      (* pre_append: dies before the record is framed — nothing lands. *)
      let j = open_exn ~sync:Journal.Per_line path in
      Faults.with_plan (Faults.Crash_at { site = "journal.pre_append"; hits = 2 }) (fun () ->
          Journal.append j e1;
          expect_crash "journal.pre_append" (fun () -> Journal.append j e2));
      Journal.close j;
      check "pre_append: record never written" true ((load_exn path).Journal.entries = [ e1 ]);
      (* post_append: dies after the sync point — the record is durable.
         (compact_ratio 2 disables auto-compaction: a Started-only journal
         is almost all dead bytes, and compacting would drop e1.) *)
      let j = open_exn ~sync:Journal.Per_line ~compact_ratio:2.0 path in
      Faults.with_plan (Faults.Crash_at { site = "journal.post_append"; hits = 1 }) (fun () ->
          expect_crash "journal.post_append" (fun () -> Journal.append j e2));
      Journal.close j;
      check "post_append: record survived" true ((load_exn path).Journal.entries = [ e1; e2 ]);
      (* pre_fsync: dies between flush and fsync — the bytes reached the
         OS, so an in-process reload still sees them. *)
      let j = open_exn ~sync:Journal.Per_line ~compact_ratio:2.0 path in
      Faults.with_plan (Faults.Crash_at { site = "journal.pre_fsync"; hits = 1 }) (fun () ->
          expect_crash "journal.pre_fsync" (fun () -> Journal.append j e1));
      Journal.close j;
      check "pre_fsync: line was flushed" true
        (List.length (load_exn path).Journal.entries = 3);
      (* mid_compact: dies between the temp fsync and the rename — the old
         journal is untouched, atomically. *)
      let before = load_exn path in
      Faults.with_plan (Faults.Crash_at { site = "journal.mid_compact"; hits = 1 }) (fun () ->
          expect_crash "journal.mid_compact" (fun () -> Journal.compact path));
      let after = load_exn path in
      check "mid_compact: old journal intact" true
        (after.Journal.entries = before.Journal.entries && after.Journal.bytes = before.Journal.bytes);
      (* ...and with no fault armed the same compaction goes through. *)
      (match Journal.compact path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "compact after aborted compact: %s" e);
      check "compaction completes afterwards" true ((load_exn path).Journal.dead_bytes = 0))

(* A driver reads its journal once, at the open: the entries it gets are
   what [load] reads, on a missing file, on a torn tail and on a journal
   the open auto-compacts. *)
let test_journal_open_load () =
  with_temp (fun path ->
      let opens_as_loaded label ?compact_ratio () =
        let loaded = (load_exn path).Journal.entries in
        match Journal.open_load ?compact_ratio path with
        | Error e -> Alcotest.failf "%s: open_load: %s" label e
        | Ok (j, rep) ->
            Journal.close j;
            check (label ^ ": the open returns load's entries") true (rep.Journal.entries = loaded)
      in
      Sys.remove path;
      opens_as_loaded "missing file" ();
      write_journal path sample_entries;
      let whole = read_file path in
      write_file path (String.sub whole 0 (String.length whole - 3));
      opens_as_loaded "torn tail" ();
      check "the tail was truncated" true ((load_exn path).Journal.torn = None);
      Sys.remove path;
      write_journal path
        (List.init 10 (fun i ->
             Journal.Done
               { id = "a"; digest = "d"; reply = Proto.failed ~id:"a" ~kind:"crash" "v%d" i }));
      opens_as_loaded "auto-compacted" ~compact_ratio:0.5 ();
      check "the journal was compacted" true ((load_exn path).Journal.records = 1))

let test_journal_last_wins () =
  let r1 = Proto.failed ~id:"a" ~kind:"crash" "first" in
  let r2 = Proto.failed ~id:"a" ~kind:"crash" "second" in
  let entries =
    [
      Journal.Done { id = "a"; digest = "d"; reply = r1 };
      Journal.Done { id = "a"; digest = "d"; reply = r2 };
    ]
  in
  with_temp (fun path ->
      write_journal path entries;
      check "last done wins" true (Hashtbl.find_opt (completed (load_exn path)) "a" = Some ("d", r2)))

(* The bytewise CRC32 the journal used before it folded eight bytes a
   step: the reference the sliced one must equal. *)
let crc32_bytewise s ~off ~len =
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let test_journal_crc () =
  check "CRC32 check value" true (Journal.crc32 "123456789" ~off:0 ~len:9 = 0xcbf43926);
  let prng = Random.State.make [| 28 |] in
  let s = String.init 80 (fun _ -> Char.chr (Random.State.int prng 256)) in
  for len = 0 to 64 do
    for off = 0 to String.length s - len do
      if Journal.crc32 s ~off ~len <> crc32_bytewise s ~off ~len then
        Alcotest.failf "crc32 differs at off %d len %d" off len
    done
  done;
  let big = String.init 30_011 (fun _ -> Char.chr (Random.State.int prng 256)) in
  check "a 30 KB record" true
    (Journal.crc32 big ~off:3 ~len:30_000 = crc32_bytewise big ~off:3 ~len:30_000)

let test_job_digest () =
  let j1 = job ~id:"x" ~steps:100 () in
  let j2 = job ~id:"x" ~steps:100 () in
  let j3 = job ~id:"x" ~steps:101 () in
  check "digest is stable" true (Journal.job_digest j1 = Journal.job_digest j2);
  check "digest covers the budget" false (Journal.job_digest j1 = Journal.job_digest j3)

let test_digest_excludes_deadline_priority () =
  (* deadline_ms and priority are delivery instructions, not part of
     what is computed: jobs differing only in them must share digests —
     and therefore share result-cache entries. *)
  let base = job ~id:"x" ~steps:100 () in
  let variant =
    job ~id:"x" ~steps:100 ~deadline_ms:5000 ~priority:"interactive" ()
  in
  check "job digest ignores deadline and priority" true
    (Journal.job_digest base = Journal.job_digest variant);
  check "canonical digest ignores deadline and priority" true
    (Journal.canonical_digest base = Journal.canonical_digest variant);
  let cached = job ~id:"orig" () in
  let good = Runner.run_job_locally cached in
  let cache = Cache.create ~entries:4 in
  Cache.store cache ~digest:(Journal.canonical_digest cached) good;
  let resub = job ~id:"resub" ~deadline_ms:250 ~priority:"batch" () in
  match Cache.find cache ~digest:(Journal.canonical_digest resub) ~id:"resub" with
  | Cache.Hit { reply = r; _ } ->
      check "cache hit across deadline/priority variants" true
        (r.Proto.verdict = good.Proto.verdict)
  | Cache.Miss | Cache.Cert_reject _ ->
      Alcotest.fail "expected a cache hit for a job differing only in delivery fields"

(* ---- local execution & policy ---- *)

let test_run_job_locally () =
  (match Runner.run_job_locally (job ~id:"easy" ()) with
  | { Proto.verdict = Proto.V_exact { value = Cert.Value.Finite 1; _ }; _ } -> ()
  | r -> Alcotest.failf "easy job: expected exact 1, got %s" (Proto.reply_to_json r));
  check "budgeted hard job is bounded" true
    (is_bounded (Runner.run_job_locally (job ~id:"hard" ~db:hard_db ~steps:50 ())));
  check "bad regex" true
    (failure_kind (Runner.run_job_locally (job ~id:"r" ~query:"((" ())) = Some "bad-job");
  check "bad db" true
    (failure_kind (Runner.run_job_locally (job ~id:"d" ~db:"one two\n" ())) = Some "bad-job");
  check "bad faults spec" true
    (failure_kind (Runner.run_job_locally (job ~id:"f" ~faults:(Some "tick:5x") ()))
    = Some "bad-job")

let test_worker_handler_total () =
  (* The handler must map any line to a reply line. *)
  List.iter
    (fun line ->
      match Proto.reply_of_json (Runner.worker_handler line) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "handler reply does not parse for %S: %s" line e)
    [ Proto.job_to_json (job ()); "garbage"; "" ]

(* The worker keeps each query's automaton and classification. A reply
   must not depend on whether its query was kept. *)
let test_query_cache () =
  let bytes j =
    Proto.reply_to_json
      { (Runner.run_job_locally j) with Proto.wall_s = 0.0; stages = []; trace = None }
  in
  let bound = Runner.query_cache_bound in
  let j = job ~id:"q" ~query:"(ab)|(bc)" ~db:"u a v\nv b w\nw c x 2\n" () in
  let first = bytes j in
  check "the query is kept" true (Runner.query_cache_size () >= 1);
  check "a kept query gives the same bytes" true (bytes j = first);
  check "value 1" true (contains first {|"value":1|});
  let n = Runner.query_cache_size () in
  let bad = job ~id:"bad" ~query:"(a" () in
  let b1 = bytes bad in
  check "invalid regex is a bad job" true
    (contains b1 {|"kind":"bad-job"|} && contains b1 {|invalid regular expression \"(a\"|});
  check "invalid regex twice, same reply" true (bytes bad = b1);
  check "invalid regex is not kept" true (Runner.query_cache_size () = n);
  (* More distinct queries than the bound, twice over: every reply is
     right, the second round's bytes equal the first's, and the table
     never holds more than the bound. *)
  let word i =
    let rec go i acc = if i = 0 then acc else go (i / 3) (String.make 1 "bcd".[i mod 3] ^ acc) in
    go (i + 1) ""
  in
  let queries = List.init (bound + 10) (fun i -> "aa|" ^ word i) in
  let round () =
    List.map
      (fun q ->
        let r = bytes (job ~id:q ~query:q ()) in
        check ("kept queries within the bound after " ^ q) true
          (Runner.query_cache_size () <= bound);
        r)
      queries
  in
  let r1 = round () in
  List.iter2
    (fun q r -> check ("exact 1 for " ^ q) true (contains r {|"value":1|} && contains r "exact"))
    queries r1;
  check "second round, same bytes" true (round () = r1)

let test_degrade_budget_monotone () =
  let steps_of (b : Proto.budget_spec) =
    match b.Proto.steps with
    | Some s -> s
    | None -> Alcotest.fail "degraded budget lost its step bound"
  in
  (* From no budget at all: the first retry must impose a finite ceiling. *)
  let b1 = Runner.degrade_budget ~degrade:8 Proto.no_budget in
  check "first retry bounds steps" true (b1.Proto.steps <> None);
  (* From there on the squeeze is strictly monotone down to the floor. *)
  let rec chase b n =
    if n = 0 then ()
    else begin
      let b' = Runner.degrade_budget ~degrade:8 b in
      check "steps never increase" true (steps_of b' <= steps_of b);
      check "steps stay positive" true (steps_of b' >= 1);
      (match (b.Proto.deadline, b'.Proto.deadline) with
      | Some d, Some d' ->
          check "deadline never increases" true (d' <= d);
          check "deadline stays positive" true (d' > 0.0)
      | None, None -> ()
      | _ -> Alcotest.fail "deadline presence must be preserved");
      chase b' (n - 1)
    end
  in
  chase { b1 with Proto.deadline = Some 10.0 } 20;
  (* The squeeze reaches a budget small enough to exhaust before any
     fault tick >= 2 — the convergence the retry loop relies on. *)
  let rec floor_of b =
    let b' = Runner.degrade_budget ~degrade:8 b in
    if steps_of b' = steps_of b then steps_of b else floor_of b'
  in
  check "degradation reaches the floor" true (floor_of b1 = 1)

(* ---- supervision sweeps ---- *)

let run_batch ?journal ?(cfg = quick_cfg) jobs =
  let settled, stats = Runner.run_batch ?journal cfg jobs in
  (List.map fst settled, stats)
let no_faults f = Faults.with_plan Faults.Off f

let test_kill_sweep () =
  (* Workers self-SIGKILL at assorted ticks; with a step budget that
     degrades 1000 -> 125 -> 15 over the retries, every job must settle as
     Bounded (exhaustion preempts the fault tick) — and the supervisor
     must survive the whole barrage. *)
  let jobs =
    List.map
      (fun n ->
        job
          ~id:(Printf.sprintf "kill%d" n)
          ~db:hard_db ~steps:1000
          ~faults:(Some (Printf.sprintf "kill:%d" n))
          ())
      [ 20; 50; 200 ]
    @ [ job ~id:"easy" (); job ~id:"hard" ~db:hard_db ~steps:400 () ]
  in
  let replies, stats = run_batch jobs in
  check "no structured failures" true (stats.Runner.failures = 0);
  List.iter
    (fun (r : Proto.reply) ->
      match r.Proto.id with
      | "easy" ->
          check "easy stays exact" true (is_exact r);
          check "easy first try" true (r.Proto.attempts = 1)
      | "hard" -> check "hard is bounded" true (is_bounded r)
      | _ ->
          check (r.Proto.id ^ " settles bounded") true (is_bounded r);
          check (r.Proto.id ^ " needed retries") true (r.Proto.attempts > 1))
    replies

let test_kill_every_tick_fails_structured () =
  (* kill:1 fires on the very first tick: no budget can preempt it, so
     the job keeps killing workers until the poison quarantine (K=3
     distinct worker deaths) settles it — structurally, not by killing
     the supervisor, and without spending the remaining retry. *)
  let replies, stats = run_batch [ job ~id:"k1" ~db:hard_db ~steps:1000 ~faults:(Some "kill:1") () ] in
  check "one failure" true (stats.Runner.failures = 1);
  match replies with
  | [ r ] ->
      check "kind is poison" true (failure_kind r = Some "poison");
      check "quarantined at K deaths" true (r.Proto.attempts = Runner.default_config.Runner.poison_k)
  | _ -> Alcotest.fail "expected one reply"

let test_poison_disabled_spends_retries () =
  (* poison_k = 0 disables quarantine: the same job burns every retry and
     fails with the plain crash kind, as before this policy existed. *)
  let cfg = { quick_cfg with Runner.poison_k = 0 } in
  let replies, stats =
    run_batch ~cfg [ job ~id:"k1" ~db:hard_db ~steps:1000 ~faults:(Some "kill:1") () ]
  in
  check "one failure" true (stats.Runner.failures = 1);
  match replies with
  | [ r ] ->
      check "kind is crash" true (failure_kind r = Some "crash");
      check "all attempts spent" true (r.Proto.attempts = 1 + cfg.Runner.retries)
  | _ -> Alcotest.fail "expected one reply"

let test_kill3_settles_at_the_floor () =
  (* kill:3 fires on the third tick of any attempt whose budget reaches
     it. Under quick_cfg (3 retries, quarantine after K = 3 deaths) the
     budget goes 400 -> 50, and the attempt that could be the third death
     runs at the 1-step floor, where exhaustion preempts the kill: every
     job settles as Bounded on its third attempt and none is poisoned. *)
  let jobs =
    List.init 4 (fun i ->
        job ~id:(Printf.sprintf "k%d" i) ~db:hard_db ~steps:400 ~faults:(Some "kill:3") ())
  in
  let replies, stats = run_batch jobs in
  check "no failures" true (stats.Runner.failures = 0);
  List.iter
    (fun (r : Proto.reply) ->
      check (r.Proto.id ^ " settles bounded") true (is_bounded r);
      check (r.Proto.id ^ " on the floor attempt") true (r.Proto.attempts = 3))
    replies

let counter_count name = Obs.Metrics.count (Obs.Metrics.counter name)

let test_hedge_race_single_settlement () =
  no_faults @@ fun () ->
  (* hedge_after 0.0 with a spare worker: the speculative duplicate
     launches immediately. Whoever finishes first must pass the
     certificate gate, the loser dies without a crash event, and exactly
     one settlement reaches the journal. *)
  let cfg = { quick_cfg with Runner.hedge_after = Some 0.0; retries = 0 } in
  let journal = Filename.temp_file "rpq_hedge" ".journal" in
  Sys.remove journal;
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ journal; journal ^ ".tmp" ])
  @@ fun () ->
  let hedges0 = counter_count "runner.hedges_total" in
  let replies, stats =
    run_batch ~journal ~cfg [ job ~id:"h" ~db:hard_db ~steps:400 () ]
  in
  check "no failures" true (stats.Runner.failures = 0);
  (match replies with
  | [ r ] ->
      check "settles bounded" true (is_bounded r);
      check "hedge does not count as an attempt" true (r.Proto.attempts = 1)
  | _ -> Alcotest.fail "expected one reply");
  check "a hedge was launched" true (counter_count "runner.hedges_total" > hedges0);
  match Runner.Journal.load journal with
  | Error e -> Alcotest.failf "journal refuses to load: %s" e
  | Ok rep ->
      let settled = completed rep in
      check "exactly one settled answer journaled" true (Hashtbl.length settled = 1)

let test_hedged_unhedged_parity () =
  no_faults @@ fun () ->
  (* The central hedging claim: under a deterministic fault plan, a
     hedged run settles every job identically to an unhedged one —
     same attempts, steps and verdict, wall clock aside. The duplicate
     carries the primary's payload verbatim, so the kill fires at the
     same tick on both sides. *)
  let mk () =
    [
      job ~id:"kill" ~db:hard_db ~steps:1000 ~faults:(Some "kill:20") ();
      job ~id:"easy" ();
      job ~id:"hard" ~db:hard_db ~steps:400 ();
    ]
  in
  let plain, _ = run_batch (mk ()) in
  let hedged, _ =
    run_batch ~cfg:{ quick_cfg with Runner.hedge_after = Some 0.0 } (mk ())
  in
  List.iter2
    (fun (a : Proto.reply) b ->
      check ("hedged parity for " ^ a.Proto.id) true
        (Proto.reply_equal_ignoring_time a b))
    plain hedged

let test_deadline_queue_shed () =
  no_faults @@ fun () ->
  (* A single worker is pinned down by a wedging job for ~job_timeout +
     grace; the easy job behind it carries a 100ms end-to-end deadline
     and must be shed at dispatch time with a retriable
     deadline_exceeded reply, never reaching a worker. *)
  let cfg =
    { quick_cfg with Runner.workers = 1; retries = 0; job_timeout = Some 0.4 }
  in
  let shed0 = counter_count "runner.deadline_exceeded_total" in
  let replies, _ =
    run_batch ~cfg
      [
        job ~id:"hog" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:50") ();
        job ~id:"late" ~deadline_ms:100 ();
      ]
  in
  check "deadline shed counted" true
    (counter_count "runner.deadline_exceeded_total" > shed0);
  List.iter
    (fun (r : Proto.reply) ->
      if r.Proto.id = "late" then begin
        check "late job shed as deadline_exceeded" true
          (failure_kind r = Some "deadline_exceeded");
        check "shed reply is retriable" true
          (match r.Proto.verdict with
          | Proto.V_failed { retriable; _ } -> retriable
          | _ -> false)
      end)
    replies

let test_deadline_clamps_budget () =
  no_faults @@ fun () ->
  (* No step budget at all: only the end-to-end deadline can stop this
     solve, by clamping the worker's budget deadline to the remaining
     client budget — so it settles as a certified bound, not a timeout
     death. *)
  let cfg = { quick_cfg with Runner.workers = 1; retries = 0 } in
  let replies, stats = run_batch ~cfg [ job ~id:"clamp" ~db:slow_db ~deadline_ms:150 () ] in
  check "no structured failures" true (stats.Runner.failures = 0);
  match replies with
  | [ r ] -> check "deadline clamps the budget to a certified bound" true (is_bounded r)
  | _ -> Alcotest.fail "expected one reply"

let test_wedge_timeout_path () =
  (* A wedged worker blocks SIGTERM, so only the SIGKILL-after-grace path
     can reclaim it; the budget squeeze then settles the job as Bounded. *)
  let cfg = { quick_cfg with Runner.retries = 2; job_timeout = Some 0.4 } in
  let replies, stats =
    run_batch ~cfg
      [
        job ~id:"wedge" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:50") ();
        job ~id:"easy" ();
      ]
  in
  check "no failures" true (stats.Runner.failures = 0);
  List.iter
    (fun (r : Proto.reply) ->
      match r.Proto.id with
      | "wedge" ->
          check "wedge settles bounded" true (is_bounded r);
          check "wedge needed retries" true (r.Proto.attempts > 1)
      | _ -> check "easy stays exact" true (is_exact r))
    replies

let test_batch_order_and_dup () =
  let jobs = List.init 9 (fun i -> job ~id:(Printf.sprintf "j%d" i) ()) in
  let replies, _ = run_batch jobs in
  check "replies in input order" true
    (List.map (fun (r : Proto.reply) -> r.Proto.id) replies
    = List.map (fun (j : Proto.job) -> j.Proto.id) jobs);
  check "duplicate ids rejected" true
    (try
       ignore (run_batch [ job ~id:"dup" (); job ~id:"dup" () ]);
       false
     with Invalid_argument _ -> true)

let test_journal_resume_identical () =
  with_temp (fun path ->
      Sys.remove path;
      let jobs =
        [
          job ~id:"a" ();
          job ~id:"b" ~db:hard_db ~steps:300 ();
          job ~id:"c" ~db:hard_db ~steps:1000 ~faults:(Some "kill:50") ();
          job ~id:"bad" ~query:"((" ();
        ]
      in
      let replies1, stats1 = run_batch ~journal:path jobs in
      check "first run computes everything" true (stats1.Runner.ran = 4 && stats1.Runner.resumed = 0);
      (* Re-verification exercises the witnesses, so run resume at the
         `cheap` check level regardless of ambient RPQ_CHECK. *)
      let replies2, stats2 =
        Check.with_level Check.Cheap (fun () -> run_batch ~journal:path jobs)
      in
      check "resume skips everything" true (stats2.Runner.ran = 0 && stats2.Runner.resumed = 4);
      check "resumed replies identical (modulo wall clock)" true
        (List.for_all2 Proto.reply_equal_ignoring_time replies1 replies2);
      (* A changed job (same id, different budget) must be recomputed. *)
      let jobs' = List.map (fun (j : Proto.job) ->
          if j.Proto.id = "b" then { j with Proto.budget = { j.Proto.budget with Proto.steps = Some 301 } }
          else j) jobs
      in
      let _, stats3 = run_batch ~journal:path jobs' in
      check "edited job recomputed" true (stats3.Runner.ran = 1 && stats3.Runner.resumed = 3))

let test_journal_resume_partial () =
  with_temp (fun path ->
      Sys.remove path;
      let early = [ job ~id:"a" (); job ~id:"b" ~db:hard_db ~steps:300 () ] in
      let all = early @ [ job ~id:"c" (); job ~id:"d" ~db:hard_db ~steps:200 () ] in
      let replies1, _ = run_batch ~journal:path early in
      (* Simulates a SIGKILLed batch: the journal holds two settled jobs,
         the rerun sees the full job list. *)
      let replies2, stats = run_batch ~journal:path all in
      check "only the new jobs ran" true (stats.Runner.ran = 2 && stats.Runner.resumed = 2);
      List.iteri
        (fun i r1 ->
          check "recorded prefix reused" true
            (Proto.reply_equal_ignoring_time r1 (List.nth replies2 i)))
        replies1)

let test_journal_rejects_corrupt_answer () =
  with_temp (fun path ->
      Sys.remove path;
      let jobs = [ job ~id:"a" () ] in
      let _ = run_batch ~journal:path jobs in
      (* Tamper: claim the answer was exact 1 with an empty witness and no
         certificate. Resume-time re-checking requires settled answers to
         carry a valid certificate, so the record is thrown away and the
         job recomputed. *)
      let forged =
        {
          Proto.id = "a";
          attempts = 1;
          steps = 0;
          wall_s = 0.0;
          stages = [];
          trace = None;
          verdict =
            Proto.V_exact { value = Cert.Value.Finite 1; algorithm = "forged"; witness = Some [] };
          cert = None;
        }
      in
      let j = open_exn path in
      Journal.append j
        (Journal.Done { id = "a"; digest = Journal.job_digest (List.nth jobs 0); reply = forged });
      Journal.close j;
      let replies, stats =
        Check.with_level Check.Cheap (fun () -> run_batch ~journal:path jobs)
      in
      check "forged answer not reused" true (stats.Runner.ran = 1 && stats.Runner.resumed = 0);
      (match replies with
      | [ r ] -> check "recomputed answer is sound" true (Runner.verify_reply r)
      | _ -> Alcotest.fail "expected one reply");
      (* With checking off, the (well-formed) record is taken at face
         value: resume must not pay verification cost unless asked. *)
      let _, stats_off =
        Check.with_level Check.Off (fun () -> run_batch ~journal:path jobs)
      in
      check "RPQ_CHECK=off trusts the journal" true (stats_off.Runner.resumed = 1))

let test_batch_crash_and_resume () =
  with_temp (fun path ->
      Sys.remove path;
      let jobs = [ job ~id:"a" (); job ~id:"b" (); job ~id:"c" () ] in
      (* The supervisor dies right after handing out the first job — the
         journal holds a Started with no Done. In-process the crash is an
         exception; Fun.protect still closes the journal (releasing the
         lock), unlike the _exit-70 path the chaos harness exercises. *)
      (match
         Faults.with_plan (Faults.Crash_at { site = "pool.post_dispatch"; hits = 1 }) (fun () ->
             run_batch ~journal:path jobs)
       with
      | _ -> Alcotest.fail "expected a supervisor crash"
      | exception Faults.Crash site -> check "crashed at dispatch" true (site = "pool.post_dispatch"));
      let rep = load_exn path in
      check "journal survives the crash" true (rep.Journal.torn_bytes = 0);
      check "nothing settled before the crash" true
        (Hashtbl.length (completed rep) = 0);
      let replies, stats = run_batch ~journal:path jobs in
      check "resume settles everything" true
        (List.length replies = 3 && stats.Runner.failures = 0);
      check "every job accounted for" true (stats.Runner.ran + stats.Runner.resumed = 3);
      List.iter (fun r -> check "resumed replies are exact" true (is_exact r)) replies)

let test_max_heap_bounds () =
  (* A 1 MB ceiling is below the solver's working set on the hard
     instance: the Gc alarm flags the overrun, the probe converts it to
     Budget.Exhausted Memory, and the job settles as a certified Bounded
     reply — it must not fail, and must name memory as the reason. The
     deadline is a backstop so a regression fails fast instead of running
     the full exponential search. *)
  Runner.set_max_heap_mb (Some 1);
  Fun.protect ~finally:(fun () -> Runner.set_max_heap_mb None) @@ fun () ->
  let r = Runner.run_job_locally (job ~id:"mem" ~db:hard_db ~deadline:10.0 ()) in
  match r.Proto.verdict with
  | Proto.V_bounded { reason; _ } -> Alcotest.(check string) "exhausted by memory" "memory" reason
  | _ -> Alcotest.failf "expected bounded-by-memory, got %s" (Proto.reply_to_json r)

let test_verify_reply () =
  let j = job ~id:"v" () in
  let good = Runner.run_job_locally j in
  check "honest reply verifies" true (Runner.verify_reply good);
  (* A forged verdict no longer matches the (untouched) certificate: the
     unknown algorithm name and the unpinned witness must both fail. *)
  let forged =
    { good with Proto.verdict = Proto.V_exact { value = Cert.Value.Finite 1; algorithm = "x"; witness = Some [] } }
  in
  check "forged witness fails" false (Runner.verify_reply forged);
  check "stripped certificate fails" false
    (Runner.verify_reply { good with Proto.cert = None });
  check "error replies pass vacuously" true
    (Runner.verify_reply (Proto.failed ~id:"v" ~kind:"crash" "boom"))

(* ---- serve ---- *)

let test_serve_roundtrip_and_shedding () =
  let in_path = Filename.temp_file "rpq_serve_in" ".jsonl" in
  let out_path = Filename.temp_file "rpq_serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ in_path; out_path ])
    (fun () ->
      (* One worker, queue of one: the wedge job occupies the worker for
         its full (short) timeout, so of the easy jobs behind it at least
         one must be shed with a retriable `overloaded'. *)
      let jobs =
        job ~id:"w" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:10") ()
        :: List.init 4 (fun i -> job ~id:(Printf.sprintf "e%d" i) ())
      in
      Out_channel.with_open_text in_path (fun oc ->
          List.iter (fun j -> output_string oc (Proto.job_to_json j ^ "\n")) jobs;
          output_string oc "this is not json\n");
      let cfg =
        {
          quick_cfg with
          Runner.workers = 1;
          retries = 0;
          queue_cap = 1;
          job_timeout = Some 0.3;
        }
      in
      In_channel.with_open_text in_path (fun ic ->
          Out_channel.with_open_text out_path (fun oc -> Runner.serve cfg ic oc));
      let replies =
        In_channel.with_open_text out_path In_channel.input_lines
        |> List.map (fun line ->
               match Proto.reply_of_json line with
               | Ok r -> r
               | Error e -> Alcotest.failf "unparseable serve reply %S: %s" line e)
      in
      check "every input line got a reply" true (List.length replies = 6);
      let by_kind k =
        List.length (List.filter (fun r -> failure_kind r = Some k) replies)
      in
      check "wedge timed out (retries=0)" true (by_kind "timeout" = 1);
      check "overload shedding happened" true (by_kind "overloaded" >= 1);
      check "bad line answered structurally" true (by_kind "bad-job" = 1);
      List.iter
        (fun r ->
          match verdict_of r with
          | Proto.V_failed { kind = "overloaded"; retriable; _ } ->
              check "overloaded is retriable" true retriable
          | _ -> ())
        replies;
      check "whatever was admitted besides the wedge ran exactly" true
        (List.for_all
           (fun (r : Proto.reply) ->
             if String.length r.Proto.id > 0 && r.Proto.id.[0] = 'e' then
               is_exact r || failure_kind r = Some "overloaded"
             else true)
           replies))

(* ---- admission, transport, cache ---- *)

module Admission = Runner.Admission
module Transport = Runner.Transport

(* The transport consults the ambient fault plan ([net:*] sites); pin it
   off so the CI RPQ_FAULTS sweeps cannot perturb these tests. *)
let test_admission_round_robin () =
  let adm = Admission.create ~client_inflight:100 in
  List.iter
    (fun (cid, x) -> Admission.enqueue adm cid x)
    [ (1, "a1"); (1, "a2"); (1, "a3"); (2, "b1"); (2, "b2"); (3, "c1") ];
  check "queued counts" true
    (Admission.queued adm = 6 && Admission.queued_for adm 1 = 3);
  let order = ref [] in
  let continue = ref true in
  while !continue do
    match Admission.next adm with
    | Some (_, x) -> order := x :: !order
    | None -> continue := false
  done;
  (* Arrival order was all of client 1, then 2, then 3; admission must
     interleave one job per client per round. *)
  Alcotest.(check (list string))
    "round-robin interleaves clients"
    [ "a1"; "b1"; "c1"; "a2"; "b2"; "a3" ]
    (List.rev !order);
  check "everything admitted is outstanding" true (Admission.inflight adm = 6);
  Admission.settled adm 1;
  check "settled frees one slot" true (Admission.inflight_for adm 1 = 2);
  check "cap below 1 rejected" true
    (match Admission.create ~client_inflight:0 with
    | (_ : unit Admission.t) -> false
    | exception Invalid_argument _ -> true)

let test_admission_inflight_cap () =
  let adm = Admission.create ~client_inflight:2 in
  List.iter (fun x -> Admission.enqueue adm 1 x) [ "a1"; "a2"; "a3"; "a4" ];
  Admission.enqueue adm 2 "b1";
  let pop () = match Admission.next adm with Some (_, x) -> x | None -> "-" in
  (* The monopolizer admits up to its cap; the other client's single job
     is never starved behind the backlog. *)
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string))
    "monopolizer capped, small client served"
    [ "a1"; "b1"; "a2"; "-" ] [ p1; p2; p3; p4 ];
  check "capped client keeps its backlog queued" true (Admission.queued_for adm 1 = 2);
  Admission.settled adm 1;
  check "headroom after settle admits the next job" true (pop () = "a3");
  check "and the cap binds again" true (pop () = "-");
  (* Cancel returns the queued (never the outstanding) items in order. *)
  Alcotest.(check (list string)) "cancel returns queued FIFO" [ "a4" ] (Admission.cancel adm 1);
  check "cancelled client has nothing queued" true (Admission.queued_for adm 1 = 0);
  check "outstanding jobs were not cancelled" true (Admission.inflight_for adm 1 = 2)

let test_admission_priority_classes () =
  let adm = Admission.create ~client_inflight:100 in
  (* One client per class, everything enqueued before the first pop: the
     dequeue order is then exactly the weighted cycle (interactive 4 :
     normal 2 : batch 1), with the highest non-empty class standing in
     once the scheduled class drains. *)
  List.iter
    (fun (prio, cid, x) -> Admission.enqueue ~prio adm cid x)
    [
      (0, 1, "b1"); (0, 1, "b2");
      (1, 2, "n1"); (1, 2, "n2"); (1, 2, "n3");
      (2, 3, "i1"); (2, 3, "i2"); (2, 3, "i3"); (2, 3, "i4");
    ];
  let order = ref [] in
  let continue = ref true in
  while !continue do
    match Admission.next adm with
    | Some (_, x) -> order := x :: !order
    | None -> continue := false
  done;
  Alcotest.(check (list string))
    "weighted cycle with fallback"
    [ "i1"; "n1"; "i2"; "b1"; "i3"; "n2"; "i4"; "n3"; "b2" ]
    (List.rev !order);
  (* Priority eviction at the cap: steal_lowest takes the oldest item of
     the lowest class strictly below the arrival's, or refuses. *)
  Admission.enqueue ~prio:0 adm 1 "b3";
  Admission.enqueue ~prio:1 adm 2 "n4";
  check "steal below interactive takes the batch item" true
    (Admission.steal_lowest adm ~below:2 = Some (1, "b3"));
  check "steal below normal refuses the normal item" true
    (Admission.steal_lowest adm ~below:1 = None);
  check "steal below batch never fires" true
    (Admission.steal_lowest adm ~below:0 = None);
  check "with batch gone the normal item is lowest" true
    (Admission.steal_lowest adm ~below:2 = Some (2, "n4"));
  check "nothing left queued" true (Admission.queued adm = 0)

(* Runs [f] with info-level logs in a temp file and counts the workers
   forked into an emptied slot while it ran: each such fork logs one
   [worker-respawn] record. *)
let counting_respawns f =
  let log = Filename.temp_file "rpq_respawn" ".log" in
  Obs.Log.reset_repeats ();
  Obs.Log.set_file log;
  Obs.Log.set_level (Some Obs.Log.Info);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level (Some Obs.Log.Warn);
      Obs.Log.close_file ();
      Sys.remove log)
    (fun () ->
      let v = f () in
      Obs.Log.close_file ();
      let respawns =
        List.length
          (List.filter
             (fun l -> contains l {|"event":"worker-respawn"|})
             (String.split_on_char '\n' (read_file log)))
      in
      (v, respawns))

let test_serve_disconnect_aborts_hedge () =
  no_faults @@ fun () ->
  (* A client submits a job that can only wedge, lingers long enough for
     the server to hedge it, then vanishes abruptly. Both attempts must
     be aborted (the serve loop exits promptly instead of waiting out
     the 5s wall backstop), the admission slot released, and no orphan
     settlement journaled. *)
  let journal = Filename.temp_file "rpq_disc" ".journal" in
  Sys.remove journal;
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ journal; journal ^ ".tmp" ])
  @@ fun () ->
  let srv_fd, cli_fd = Transport.pair () in
  let stuck = job ~id:"stuck" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:50") () in
  match Unix.fork () with
  | 0 ->
      Unix.close srv_fd;
      let oc = Unix.out_channel_of_descr cli_fd in
      output_string oc (Proto.job_to_wire_json stuck ^ "\n");
      flush oc;
      Unix.sleepf 0.5;
      Unix._exit 0
  | pid ->
      Unix.close cli_fd;
      let cancelled0 = counter_count "serve.cancelled" in
      let hedges0 = counter_count "runner.hedges_total" in
      let scfg =
        {
          Runner.default_serve_config with
          Runner.base =
            {
              quick_cfg with
              Runner.workers = 2;
              hedge_after = Some 0.05;
              job_timeout = Some 5.0;
            };
          serve_journal = Some journal;
        }
      in
      let t0 = Unix.gettimeofday () in
      let content, respawns =
        counting_respawns (fun () ->
            with_traced (fun () -> Runner.serve_sockets ~preconnected_abrupt:[ srv_fd ] scfg))
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      ignore (Unix.waitpid [] pid);
      check "no worker forked for the aborted attempts" true (respawns = 0);
      check_request_exits "hedged cancel" content (exactly [ "cancelled" ]);
      check "the job was hedged before the disconnect" true
        (counter_count "runner.hedges_total" > hedges0);
      check "disconnect cancelled the inflight job" true
        (counter_count "serve.cancelled" > cancelled0);
      check "serve exited by abort, not by the wall backstop" true (elapsed < 4.0);
      if Sys.file_exists journal then begin
        match Runner.Journal.load journal with
        | Error e -> Alcotest.failf "journal refuses to load: %s" e
        | Ok rep ->
            check "no orphan settlement journaled" true
              (Hashtbl.length (completed rep) = 0)
      end

(* A client on a real socket that half-closes with more jobs queued than
   there are workers still reads every reply: EOF drains. The client
   stops the server (SIGTERM) once it has read to EOF. *)
let test_serve_socket_half_close_drains () =
  no_faults @@ fun () ->
  let path = Filename.temp_file "rpq_eof" ".sock" in
  let out = Filename.temp_file "rpq_eof" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; out ])
  @@ fun () ->
  let jobs = List.init 6 (fun i -> job ~id:(Printf.sprintf "e%d" i) ()) in
  let server = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let rec connect tries =
            match Transport.connect_unix path with
            | chans -> chans
            | exception Unix.Unix_error _ when tries > 0 ->
                Unix.sleepf 0.02;
                connect (tries - 1)
          in
          let ic, oc = connect 250 in
          List.iter (fun j -> output_string oc (Proto.job_to_json j ^ "\n")) jobs;
          Transport.shutdown_send oc;
          let lines = In_channel.input_lines ic in
          write_file out (String.concat "" (List.map (fun l -> l ^ "\n") lines));
          0
        with _ -> 1
      in
      Unix.kill server Sys.sigterm;
      Unix._exit code
  | pid ->
      let scfg =
        {
          Runner.default_serve_config with
          Runner.base = { quick_cfg with Runner.workers = 2 };
          listen = Some path;
        }
      in
      Runner.serve_sockets scfg;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "the socket client failed");
      let replies =
        List.map
          (fun line ->
            match Proto.reply_of_json line with
            | Ok r -> r
            | Error e -> Alcotest.failf "unparseable serve reply %S: %s" line e)
          (In_channel.with_open_bin out In_channel.input_lines)
      in
      Alcotest.(check (list string))
        "every queued job answered" (List.map (fun (j : Proto.job) -> j.Proto.id) jobs)
        (List.sort compare (List.map (fun (r : Proto.reply) -> r.Proto.id) replies));
      check "every reply exact" true (List.for_all is_exact replies)

let test_transport_write_timeout () =
  no_faults @@ fun () ->
  check "non-positive write timeout rejected" true
    (match Transport.create ~write_timeout:0.0 () with
    | (_ : Transport.t) -> false
    | exception Invalid_argument _ -> true);
  let tr = Transport.create ~write_timeout:1e-6 () in
  let a, b = Transport.pair () in
  let c = Transport.add_client tr ~in_fd:a ~out_fd:a () in
  let peer = Transport.add_client tr ~in_fd:b ~out_fd:b () in
  (* The peer never reads: one oversized reply saturates the socket
     buffer (a single flush moves at most 64 KiB), so output stalls with
     bytes still pending and the 1 µs stall budget expires at once. *)
  ignore (Transport.send tr c (String.make 400_000 'x'));
  check "output is stalled" true (Transport.pending_out c > 0);
  let dead = ref false in
  let iters = ref 0 in
  while (not !dead) && !iters < 1_000_000 do
    incr iters;
    List.iter
      (function
        | Transport.Dead (dc, _) -> if Transport.cid dc = Transport.cid c then dead := true
        | _ -> ())
      (Transport.check_timeouts tr)
  done;
  check "stalled client declared dead" true !dead;
  check "dead client removed from the transport" true
    (not (List.exists (fun x -> Transport.cid x = Transport.cid c) (Transport.clients tr)));
  check "send to a dead client is a silent no-op" true (Transport.send tr c "late" = []);
  Transport.drop tr peer

let test_transport_backpressure () =
  no_faults @@ fun () ->
  let tr = Transport.create ~out_cap:10 () in
  let a, b = Transport.pair () in
  let c = Transport.add_client tr ~in_fd:a ~out_fd:a () in
  let peer = Transport.add_client tr ~in_fd:b ~out_fd:b () in
  check "both clients start readable" true (List.length (Transport.read_fds tr) = 2);
  (* Buffer well past out_cap: the client's input fd must leave the read
     set — a client that stops reading replies stops submitting. *)
  ignore (Transport.send tr c (String.make 100_000 'y'));
  check "backpressured client leaves the read set" true
    (List.length (Transport.read_fds tr) = 1);
  let iters = ref 0 in
  while Transport.pending_out c > 0 && !iters < 100 do
    incr iters;
    List.iter (fun fd -> ignore (Transport.handle_writable tr fd)) (Transport.write_fds tr)
  done;
  check "output drained" true (Transport.pending_out c = 0);
  check "drained client rejoins the read set" true
    (List.length (Transport.read_fds tr) = 2);
  Transport.drop tr c;
  Transport.drop tr peer

(* A forged exact verdict: the untouched certificate no longer matches,
   so the independent checker must refuse it wherever it resurfaces —
   cache lookups and journal-seeded entries alike. *)
let forge (r : Proto.reply) =
  {
    r with
    Proto.verdict =
      Proto.V_exact { value = Cert.Value.Finite 1; algorithm = "forged"; witness = Some [] };
  }

let test_cache_hit_miss_lru () =
  let j = job ~id:"orig" () in
  let good = Runner.run_job_locally j in
  let digest = Journal.canonical_digest j in
  let cache = Cache.create ~entries:2 in
  check "empty cache misses" true (Cache.find cache ~digest ~id:"q" = Cache.Miss);
  Cache.store cache ~digest good;
  (match Cache.find cache ~digest ~id:"other" with
  | Cache.Hit { reply = r; _ } ->
      check "hit rewrites the id to the requester's" true (r.Proto.id = "other");
      check "hit reports zero supervisor time" true (r.Proto.wall_s = 0.0);
      check "verdict and certificate preserved" true
        (r.Proto.verdict = good.Proto.verdict && r.Proto.cert = good.Proto.cert)
  | Cache.Miss | Cache.Cert_reject _ -> Alcotest.fail "expected a hit");
  (* The entry holds the bytes the first requester got; a hit sends them
     with the requester's id and wall_s 0, the bytes a re-encode of the
     decoded reply gives — on the first hit, which decodes them, and on
     later hits, which reuse the decode. *)
  let sent = Proto.reply_to_json { good with Proto.id = "first"; wall_s = 0.75 } in
  Cache.store cache ~digest ~line:sent good;
  List.iter
    (fun id ->
      match Cache.find cache ~digest ~id with
      | Cache.Hit { line; _ } ->
          Alcotest.(check string)
            ("hit line for " ^ id)
            (Proto.reply_to_json { good with Proto.id; wall_s = 0.0 })
            line
      | Cache.Miss | Cache.Cert_reject _ -> Alcotest.fail "expected a hit")
    [ "h1"; "h2" ];
  (* Error replies describe circumstance, not the answer: never cached. *)
  Cache.store cache ~digest:"dg-err" (Proto.failed ~id:"e" ~kind:"crash" "boom");
  check "failures are not cached" true (Cache.find cache ~digest:"dg-err" ~id:"e" = Cache.Miss);
  (* LRU at capacity 2: touch the first entry, insert a third, and the
     untouched second entry is the one evicted. *)
  let j2 = job ~id:"j2" ~query:"a" () in
  let d2 = Journal.canonical_digest j2 in
  Cache.store cache ~digest:d2 (Runner.run_job_locally j2);
  ignore (Cache.find cache ~digest ~id:"touch");
  let j3 = job ~id:"j3" ~query:"aa|a" () in
  let d3 = Journal.canonical_digest j3 in
  Cache.store cache ~digest:d3 (Runner.run_job_locally j3);
  check "lru entry evicted at capacity" true (Cache.find cache ~digest:d2 ~id:"x" = Cache.Miss);
  check "recently used entry survives" true
    (match Cache.find cache ~digest ~id:"y" with Cache.Hit _ -> true | _ -> false);
  check "at most [entries] cached" true (Cache.length cache = 2);
  (* entries <= 0 disables the cache entirely. *)
  let off = Cache.create ~entries:0 in
  Cache.store off ~digest good;
  check "disabled cache never hits" true (Cache.find off ~digest ~id:"z" = Cache.Miss)

let test_cache_cert_reject () =
  let j = job ~id:"cr" () in
  let good = Runner.run_job_locally j in
  let digest = Journal.canonical_digest j in
  let cache = Cache.create ~entries:4 in
  Cache.store cache ~digest (forge good);
  (match Cache.find cache ~digest ~id:"victim" with
  | Cache.Cert_reject _ -> ()
  | Cache.Hit _ -> Alcotest.fail "a tampered entry was served from the cache"
  | Cache.Miss -> Alcotest.fail "expected Cert_reject, got Miss");
  check "rejected entry was evicted (next lookup recomputes)" true
    (Cache.find cache ~digest ~id:"victim" = Cache.Miss);
  Cache.store cache ~digest good;
  check "the honest reply serves" true
    (match Cache.find cache ~digest ~id:"v2" with Cache.Hit _ -> true | _ -> false);
  (* Bytes that do not decode are refused the same way. *)
  let torn = Proto.reply_to_json good in
  Cache.store cache ~digest ~line:(String.sub torn 0 (String.length torn / 2)) good;
  (match Cache.find cache ~digest ~id:"v3" with
  | Cache.Cert_reject _ -> ()
  | Cache.Hit _ -> Alcotest.fail "undecodable bytes were served from the cache"
  | Cache.Miss -> Alcotest.fail "expected Cert_reject for undecodable bytes, got Miss");
  check "the undecodable entry was evicted" true (Cache.find cache ~digest ~id:"v3" = Cache.Miss)

(* Drive [serve_sockets] end-to-end over pre-connected socketpairs: each
   client pre-writes its job lines, half-closes, and reads replies back
   after the server returns. An [abrupt] client's half-close is a
   disconnect. *)
let run_serve_lines ?(abrupt = false) ?(encode = fun j -> Proto.job_to_json j) ~scfg
    jobs_per_client =
  let ends = List.map (fun _ -> Transport.pair ()) jobs_per_client in
  let chans = List.map (fun (_, fd) -> Transport.channels_of_fd fd) ends in
  List.iter2
    (fun (_, oc) jobs ->
      List.iter (fun j -> output_string oc (encode j ^ "\n")) jobs;
      Transport.shutdown_send oc)
    chans jobs_per_client;
  let fds = List.map fst ends in
  if abrupt then Runner.serve_sockets ~preconnected_abrupt:fds scfg
  else Runner.serve_sockets ~preconnected:fds scfg;
  List.map
    (fun (ic, oc) ->
      let lines = In_channel.input_lines ic in
      close_in ic;
      close_out_noerr oc;
      lines)
    chans

let run_serve_clients ?encode ~scfg jobs_per_client =
  List.map
    (List.map (fun line ->
         match Proto.reply_of_json line with
         | Ok r -> r
         | Error e -> Alcotest.failf "unparseable serve reply %S: %s" line e))
    (run_serve_lines ?encode ~scfg jobs_per_client)

let test_serve_two_clients () =
  no_faults @@ fun () ->
  let scfg =
    {
      Runner.default_serve_config with
      Runner.base = quick_cfg;
      cache_entries = 8;
      client_inflight = 2;
    }
  in
  let c1_jobs = List.init 3 (fun i -> job ~id:(Printf.sprintf "a%d" i) ()) in
  (* "a0" on purpose: the same id on two clients must not collide — jobs
     run under namespaced internal ids and each client gets its own
     reply back (the second is a certificate-checked cache hit). *)
  let c2_jobs = [ job ~id:"a0" (); job ~id:"b1" ~query:"a" () ] in
  match run_serve_clients ~scfg [ c1_jobs; c2_jobs ] with
  | [ r1; r2 ] ->
      let ids rs = List.sort compare (List.map (fun (r : Proto.reply) -> r.Proto.id) rs) in
      Alcotest.(check (list string)) "client 1 got exactly its ids" [ "a0"; "a1"; "a2" ] (ids r1);
      Alcotest.(check (list string)) "client 2 got exactly its ids" [ "a0"; "b1" ] (ids r2);
      List.iter
        (fun r -> check "every reply verifies independently" true (Runner.verify_reply r))
        (r1 @ r2)
  | rs -> Alcotest.failf "expected replies for two clients, got %d" (List.length rs)

let test_serve_journal_seed_and_release () =
  no_faults @@ fun () ->
  with_temp (fun jpath ->
      Sys.remove jpath;
      let j = job ~id:"t1" () in
      let digest = Journal.canonical_digest j in
      let good = Runner.run_job_locally j in
      (* A journal whose settled answer was tampered with on disk: the
         server seeds its cache from it, but the certificate gate at
         lookup must force a recompute rather than serve the forgery. *)
      write_journal jpath [ Journal.Done { id = "t1"; digest; reply = forge good } ];
      let scfg =
        {
          Runner.default_serve_config with
          Runner.base = quick_cfg;
          serve_journal = Some jpath;
        }
      in
      (match run_serve_clients ~scfg [ [ j ] ] with
      | [ [ r ] ] ->
          check "tampered seed not served; answer recomputed" true (Runner.verify_reply r);
          check "recomputed answer is exact" true (is_exact r)
      | _ -> Alcotest.fail "expected exactly one reply for one client");
      (* The EOF exit path must close the journal: the exclusive lock is
         released and the settlement was appended under the original id
         with the canonical digest. *)
      (match Journal.open_append jpath with
      | Ok jl -> Journal.close jl
      | Error e -> Alcotest.failf "journal lock not released after serve: %s" e);
      let rep = load_exn jpath in
      (match Hashtbl.find_opt (completed rep) "t1" with
      | Some (d, r) ->
          check "journaled under the canonical digest" true (d = digest);
          check "journaled settlement verifies (last wins over the forgery)" true
            (Runner.verify_reply r)
      | None -> Alcotest.fail "t1 not settled in the serve journal");
      (* Untampered: a fresh server seeds its cache from that honest
         settlement, so the same content under a new id is a
         certificate-checked cache hit and never reaches a worker. *)
      let hits = Obs.Metrics.counter "cache.hits" and jobs = Obs.Metrics.counter "runner.jobs" in
      let hits0 = Obs.Metrics.count hits and jobs0 = Obs.Metrics.count jobs in
      match run_serve_clients ~scfg [ [ { j with Proto.id = "t2" } ] ] with
      | [ [ r ] ] ->
          check "served under the new id" true (r.Proto.id = "t2" && is_exact r);
          check "journal-seeded answer served from the cache" true
            (Obs.Metrics.count hits = hits0 + 1);
          check "no job was dispatched" true (Obs.Metrics.count jobs = jobs0)
      | _ -> Alcotest.fail "expected exactly one reply for one client")

(* The raw [Done] records of a journal file, as (id, reply bytes): the
   slice of the payload after its ,"reply": key, up to the closing brace
   (the reply is the record's last member). *)
let journal_done_replies path =
  let key = {|,"reply":|} in
  match String.split_on_char '\n' (read_file path) with
  | [] -> []
  | _header :: records ->
      List.filter_map
        (fun line ->
          if line = "" then None
          else
            let colon i = String.index_from line i ':' in
            let p = colon (colon (colon 0 + 1) + 1) + 1 in
            let payload = String.sub line p (String.length line - p) in
            match (Journal.entry_of_json payload, index_of payload key) with
            | Ok (Journal.Done { id; _ }), Some k ->
                let from = k + String.length key in
                Some (id, String.sub payload from (String.length payload - from - 1))
            | _ -> None)
        records

(* One encoding per settled reply: on a journaled serve, the reply inside
   each [Done] record is byte-for-byte the line its client read, for a
   computed answer and for a journal-seeded cache hit alike. *)
let test_serve_journal_shares_reply_bytes () =
  no_faults @@ fun () ->
  with_temp (fun jpath ->
      Sys.remove jpath;
      let scfg =
        { Runner.default_serve_config with Runner.base = quick_cfg; serve_journal = Some jpath }
      in
      let a = job ~id:"a" () and b = job ~id:"b" ~query:"a" () in
      let first =
        match run_serve_lines ~scfg [ [ a; b ] ] with
        | [ lines ] -> lines
        | _ -> Alcotest.fail "expected one client"
      in
      let hits0 = counter_count "cache.hits" in
      let second =
        match run_serve_lines ~scfg [ [ { a with Proto.id = "a2" } ] ] with
        | [ lines ] -> lines
        | _ -> Alcotest.fail "expected one client"
      in
      check "the resubmission was a cache hit" true (counter_count "cache.hits" = hits0 + 1);
      let journaled = journal_done_replies jpath in
      let client_lines = first @ second in
      check "three replies, three Done records" true
        (List.length client_lines = 3 && List.length journaled = 3);
      List.iter
        (fun line ->
          let id =
            match Proto.reply_of_json line with
            | Ok r -> r.Proto.id
            | Error e -> Alcotest.failf "unparseable serve reply %S: %s" line e
          in
          match List.assoc_opt id journaled with
          | Some bytes -> Alcotest.(check string) (id ^ ": journal reply = client line") line bytes
          | None -> Alcotest.failf "%s has no Done record" id)
        client_lines;
      check "the journal loads" true ((load_exn jpath).Journal.records >= 3))

(* The bytes of a reply line from its [outcome] member on: what is left
   once the head ([v], [id], [attempts], [steps], [wall_s]) and the
   [stages] and [trace] members before [outcome] are cut. *)
let from_outcome line =
  match index_of line {|"outcome":|} with
  | Some k -> String.sub line k (String.length line - k)
  | None -> Alcotest.failf "reply line without an outcome: %S" line

(* A batch journal's [Done] record holds the line [rpq batch] prints (the
   worker's line restamped), and that line is the one a serve journal
   holds for the same job once the per-request fields are cut: both
   drivers settle through the engine. *)
let test_batch_journal_shares_reply_bytes () =
  no_faults @@ fun () ->
  with_temp (fun bpath ->
      with_temp (fun spath ->
          Sys.remove bpath;
          Sys.remove spath;
          let jobs = [ job ~id:"a" (); job ~id:"b" ~db:hard_db ~steps:300 () ] in
          let settled, _ = Runner.run_batch ~journal:bpath quick_cfg jobs in
          let batch_done = journal_done_replies bpath in
          check "one Done record per job" true (List.length batch_done = List.length jobs);
          List.iter
            (fun ((r : Proto.reply), line) ->
              Alcotest.(check (option string))
                (r.Proto.id ^ ": the journal holds the printed line")
                (Some line)
                (List.assoc_opt r.Proto.id batch_done))
            settled;
          let scfg =
            { Runner.default_serve_config with Runner.base = quick_cfg; serve_journal = Some spath }
          in
          ignore
            (run_serve_lines ~scfg
               [ List.map (fun (j : Proto.job) -> { j with Proto.id = "s" ^ j.Proto.id }) jobs ]);
          let serve_done = journal_done_replies spath in
          List.iter
            (fun (j : Proto.job) ->
              match (List.assoc_opt j.Proto.id batch_done, List.assoc_opt ("s" ^ j.Proto.id) serve_done) with
              | Some b, Some s ->
                  Alcotest.(check string)
                    (j.Proto.id ^ ": batch and serve journal one reply")
                    (from_outcome s) (from_outcome b);
                  check (j.Proto.id ^ ": same steps") true
                    ((decode_exn b).Proto.steps = (decode_exn s).Proto.steps)
              | _ -> Alcotest.failf "%s: missing Done record" j.Proto.id)
            jobs))

(* Every way a request leaves the server ends in one release: settled, a
   deadline expired in the admission queue, a disconnect's queued jobs,
   a priority eviction, and a drain's queued and unsettled jobs. (The
   hedged cancel is in [test_serve_disconnect_aborts_hedge].) *)
let test_serve_request_exits () =
  no_faults @@ fun () ->
  let scfg ?(queue_cap = 64) () =
    {
      Runner.default_serve_config with
      Runner.base = { quick_cfg with Runner.workers = 1; queue_cap };
      drain_grace = 0.2;
    }
  in
  let run label ?abrupt ?(scfg = scfg ()) jobs outcomes =
    let content =
      with_traced (fun () ->
          ignore (run_serve_lines ?abrupt ~encode:Proto.job_to_wire_json ~scfg [ jobs ]))
    in
    check_request_exits label content outcomes
  in
  run "settled, deadline in the queue"
    [ job ~id:"a" (); job ~id:"late" ~deadline_ms:0 () ]
    (exactly [ "exact"; "deadline_exceeded" ]);
  (* One worker: at most one job leaves the queue before the disconnect
     is read. *)
  run "disconnect" ~abrupt:true
    (List.init 4 (fun i -> job ~id:(Printf.sprintf "d%d" i) ()))
    (fun got ->
      List.length got = 4
      && List.for_all (fun o -> o = "exact" || o = "cancelled") got
      && List.length (List.filter (( = ) "cancelled") got) >= 2);
  run "priority eviction" ~scfg:(scfg ~queue_cap:2 ())
    [
      job ~id:"b1" ~priority:"batch" ();
      job ~id:"b2" ~priority:"batch" ();
      job ~id:"i1" ~priority:"interactive" ();
    ]
    (exactly [ "exact"; "exact"; "shed" ]);
  (* The wedged job holds the only worker past the drain grace; the
     others wait in the queue when SIGTERM lands. *)
  let server = Unix.getpid () in
  let killer =
    match Unix.fork () with
    | 0 ->
        Unix.sleepf 0.3;
        Unix.kill server Sys.sigterm;
        Unix._exit 0
    | pid -> pid
  in
  run "drain"
    (job ~id:"w" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:10") ()
    :: List.init 3 (fun i -> job ~id:(Printf.sprintf "q%d" i) ()))
    (exactly [ "shed"; "shed"; "shed"; "shed" ]);
  ignore (Unix.waitpid [] killer)

(* The job that outlives a drain's grace is aborted, and the closing
   pool forks no worker in its place. Nothing dies before the grace, so
   any replacement forked in this run would come after it. *)
let test_serve_drain_forks_nothing () =
  no_faults @@ fun () ->
  let scfg =
    {
      Runner.default_serve_config with
      Runner.base = { quick_cfg with Runner.workers = 1 };
      drain_grace = 0.2;
    }
  in
  let server = Unix.getpid () in
  let killer =
    match Unix.fork () with
    | 0 ->
        Unix.sleepf 0.3;
        Unix.kill server Sys.sigterm;
        Unix._exit 0
    | pid -> pid
  in
  let replies, respawns =
    counting_respawns (fun () ->
        run_serve_lines ~encode:Proto.job_to_wire_json ~scfg
          [ [ job ~id:"w" ~db:hard_db ~steps:1000 ~faults:(Some "wedge:10") () ] ])
  in
  ignore (Unix.waitpid [] killer);
  check "the wedged job was shed at the drain" true
    (List.for_all (fun l -> contains l "did not settle within the grace") (List.concat replies));
  check "no worker forked after the grace" true (respawns = 0)

(* Drives [serve_sockets] from a forked client that sends each line only
   once the reply to the one before it is in, so a later job finds what
   an earlier one left in the cache. Returns the client's reply lines. *)
let serve_sequential ?handler ~scfg lines =
  let server_end, client_end = Transport.pair () in
  let out = Filename.temp_file "rpq_seq" ".jsonl" in
  match Unix.fork () with
  | 0 ->
      Unix.close server_end;
      let code =
        try
          let ic, oc = Transport.channels_of_fd client_end in
          let replies =
            List.map
              (fun l ->
                output_string oc (l ^ "\n");
                flush oc;
                input_line ic)
              lines
          in
          write_file out (String.concat "" (List.map (fun r -> r ^ "\n") replies));
          Transport.shutdown_send oc;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close client_end;
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          Runner.serve_sockets ?handler ~preconnected:[ server_end ] scfg;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> In_channel.with_open_bin out In_channel.input_lines
          | _ -> Alcotest.fail "the sequential client did not get its replies")

(* A worker handler whose first attempt at a job writes [corrupt] of the
   real reply line. The first attempt of a job without a step budget is
   the only one that runs without one: a retry's budget is degraded. *)
let first_attempt_writes corrupt line =
  let reply = Runner.worker_handler line in
  match Proto.job_of_json line with
  | Ok j when j.Proto.budget.Proto.steps = None -> corrupt reply
  | _ -> reply

(* [{"edges":[[s,d,c],…} → [{"edges":[[s,d],…}: still JSON, but the
   certificate no longer fits its schema. *)
let drop_first_capacity line =
  let key = {|"edges":[[|} in
  let rec find i = if String.sub line i (String.length key) = key then i else find (i + 1) in
  let p = find 0 + String.length key in
  let q = String.index_from line p ']' in
  let comma = String.rindex_from line q ',' in
  String.sub line 0 comma ^ String.sub line q (String.length line - q)

(* A worker line that does not decode is a [Malformed] death: counted,
   retried, and never seen by the client, the journal or the cache —
   the supervisor settles the retry's reply instead. *)
let test_serve_malformed_worker_lines () =
  no_faults @@ fun () ->
  List.iter
    (fun (label, corrupt) ->
      with_temp (fun jpath ->
          Sys.remove jpath;
          let scfg =
            {
              Runner.default_serve_config with
              Runner.base = quick_cfg;
              serve_journal = Some jpath;
            }
          in
          let j = job ~id:"m1" ~db:"s a m\nm b t\ns b u\nu a t\n" ~query:"ab" () in
          check (label ^ ": the corruption still frames as one line") false
            (String.contains (corrupt (Runner.worker_handler (Proto.job_to_wire_json j))) '\n');
          let malformed0 = counter_count "runner.deaths.malformed"
          and retries0 = counter_count "runner.retries"
          and hits0 = counter_count "cache.hits" in
          match
            serve_sequential ~handler:(first_attempt_writes corrupt) ~scfg
              [ Proto.job_to_json j; Proto.job_to_json { j with Proto.id = "m2" } ]
          with
          | [ l1; l2 ] ->
              check (label ^ ": one malformed death") true
                (counter_count "runner.deaths.malformed" = malformed0 + 1);
              check (label ^ ": retried once") true (counter_count "runner.retries" = retries0 + 1);
              let r1 = decode_exn l1 in
              check (label ^ ": the client got the retry's answer") true
                (r1.Proto.id = "m1" && r1.Proto.attempts = 2 && is_exact r1 && Runner.verify_reply r1);
              check (label ^ ": the resubmission was a cache hit") true
                (counter_count "cache.hits" = hits0 + 1);
              Alcotest.(check string)
                (label ^ ": the cache held the retry's bytes")
                (Proto.reply_to_json { r1 with Proto.id = "m2"; wall_s = 0.0 })
                l2;
              Alcotest.(check (list (pair string string)))
                (label ^ ": the journal holds exactly the client's lines")
                [ ("m1", l1); ("m2", l2) ]
                (journal_done_replies jpath)
          | lines -> Alcotest.failf "%s: expected 2 replies, got %d" label (List.length lines)))
    [ ("not JSON", fun _ -> "this is not a reply"); ("cert schema", drop_first_capacity) ]

(* A stats line right behind a job line sees that job: [runner.jobs]
   counts at admission, before the job waits for a worker. *)
let test_serve_stats_sees_prior_job () =
  no_faults @@ fun () ->
  let in_path = Filename.temp_file "rpq_stats_in" ".jsonl" in
  let out_path = Filename.temp_file "rpq_stats_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ in_path; out_path ])
    (fun () ->
      write_file in_path (Proto.job_to_json (job ~id:"a" ()) ^ "\n" ^ {|{"id":"s","stats":true}|} ^ "\n");
      let jobs0 = counter_count "runner.jobs" in
      In_channel.with_open_text in_path (fun ic ->
          Out_channel.with_open_text out_path (fun oc -> Runner.serve quick_cfg ic oc));
      let stats =
        List.find_map
          (fun line ->
            match Cert.Json.parse line with
            | Ok v -> Cert.Json.member "stats" v
            | Error _ -> None)
          (In_channel.with_open_text out_path In_channel.input_lines)
      in
      match Option.bind stats (Cert.Json.member "runner.jobs") with
      | Some (Cert.Json.Int n) ->
          check "the stats snapshot counts the job on the line above" true (n >= jobs0 + 1)
      | _ -> Alcotest.fail "no runner.jobs in the stats reply")

(* Shed rate by priority class at roughly 2x overload: one worker, a
   queue capped at 8 and one client per class, each pushing 16 budgeted
   hard jobs. Interactive arrivals evict queued batch work at the cap,
   so the shed burden lands on the low classes. Both client orders run:
   whichever client the server happens to read first fills the queue,
   and the claim must hold because of eviction, not arrival order. *)
let test_serve_priority_shed_rates () =
  no_faults @@ fun () ->
  let k5 =
    let pre, _ = Gadgets.gadget_aa () in
    Ser.to_string (Gadgets.encode pre (Graphs.Ugraph.complete 5))
  in
  let scfg =
    {
      Runner.default_serve_config with
      Runner.base = { Runner.default_config with Runner.workers = 1; retries = 0; queue_cap = 8 };
      cache_entries = 0;
    }
  in
  let shed_rate rs =
    let shed = List.length (List.filter (fun r -> failure_kind r = Some "overloaded") rs) in
    (shed, float_of_int shed /. float_of_int (max 1 (List.length rs)))
  in
  List.iter
    (fun classes ->
      let per_client =
        List.map
          (fun cls ->
            List.init 16 (fun i ->
                job ~id:(Printf.sprintf "%s%d" cls i) ~db:k5 ~steps:200 ~priority:cls ()))
          classes
      in
      let by_class =
        List.combine classes (run_serve_clients ~encode:Proto.job_to_wire_json ~scfg per_client)
      in
      check "every job answered" true
        (List.for_all (fun (_, rs) -> List.length rs = 16) by_class);
      let batch_shed, batch_rate = shed_rate (List.assoc "batch" by_class) in
      let _, interactive_rate = shed_rate (List.assoc "interactive" by_class) in
      check "batch work is shed under overload" true (batch_shed > 0);
      check "interactive sheds no more often than batch" true (interactive_rate <= batch_rate))
    [ [ "batch"; "normal"; "interactive" ]; [ "interactive"; "normal"; "batch" ] ]

(* ---- telemetry: cross-process traces ---- *)

module Trace_check = Runner.Trace_check

(* A traced serve with a worker killed mid-job. The span opened here
   plays the remote client: its context rides the wire form of each job,
   so the supervisor's request and job spans — and the workers'
   re-emitted spans, including the killed attempts the supervisor
   closes as [interrupted] — all join its trace in the one sink. The
   stitched file must validate as a whole. *)
let test_trace_stitched_kill () =
  no_faults @@ fun () ->
  let content =
    with_traced (fun () ->
        let h =
          match Trace.open_span "request" with
          | Some h -> h
          | None -> Alcotest.fail "tracing configured but open_span declined"
        in
        let tid = (Trace.handle_ctx h).Trace.trace_id in
        let ctx = Some (Trace.ctx_to_string (Trace.handle_ctx h)) in
        let jobs =
          [
            { (job ~id:"ok" ()) with Proto.trace = ctx };
            (* kill:1 fires on the first budget tick of every attempt:
               each worker dies with its solve span open, and the
               supervisor must close all of them as interrupted. *)
            { (job ~id:"boom" ~faults:(Some "kill:1") ()) with Proto.trace = ctx };
          ]
        in
        let scfg = { Runner.default_serve_config with Runner.base = quick_cfg } in
        (match run_serve_clients ~encode:Proto.job_to_wire_json ~scfg [ jobs ] with
        | [ rs ] ->
            check "both jobs settled" true (List.length rs = 2);
            List.iter
              (fun (r : Proto.reply) ->
                match r.Proto.id with
                | "ok" -> begin
                    match Option.bind r.Proto.trace Trace.ctx_of_string with
                    | Some rctx ->
                        check "reply joins the client's trace" true
                          (rctx.Trace.trace_id = tid)
                    | None -> Alcotest.fail "traced reply without a usable trace ctx"
                  end
                | _ ->
                    check "killed job quarantined as poison" true
                      (failure_kind r = Some "poison");
                    check "killed job quarantined at K deaths" true
                      (r.Proto.attempts = quick_cfg.Runner.poison_k))
              rs
        | rs -> Alcotest.failf "expected one client's replies, got %d" (List.length rs));
        Trace.close_span h)
  in
  (match Trace_check.check_jsonl_string content with
  | Ok st ->
      check "client, request, job and worker spans present" true
        (st.Trace_check.spans >= 4);
      check "worker pids stitched in" true (st.Trace_check.processes >= 2);
      check "everything shares the client's trace id" true
        (st.Trace_check.traces = 1)
  | Error e -> Alcotest.failf "stitched trace rejected: %s" e);
  check "killed attempts were closed as interrupted spans" true
    (contains content "\"interrupted\":true")

(* Hand-built two-span segment; [psid] selects the child's parent. *)
let orphan_fixture ~psid =
  String.concat "\n"
    [
      {|{"ev":"meta","pid":1,"t0":1000000,"tid":"t1"}|};
      {|{"ev":"span","name":"root","ts":0.0,"dur":0.1,"depth":0,"pid":1,"tid":"t1","sid":"t1.1"}|};
      Printf.sprintf
        {|{"ev":"span","name":"child","ts":0.01,"dur":0.02,"depth":1,"pid":1,"tid":"t1","sid":"t1.2","psid":"%s"}|}
        psid;
      "";
    ]

let test_trace_orphan_reject () =
  (match Trace_check.check_jsonl_string (orphan_fixture ~psid:"t1.1") with
  | Ok st -> check "well-parented fixture validates" true (st.Trace_check.spans = 2)
  | Error e -> Alcotest.failf "well-parented fixture rejected: %s" e);
  match Trace_check.check_jsonl_string (orphan_fixture ~psid:"t1.9") with
  | Ok _ -> Alcotest.fail "a span naming a parent absent from the file must reject"
  | Error e -> check "error names the orphan" true (contains e "orphan")

(* ---- chaos: the CI chaos commands, through the built binary ---- *)

(* The suite runs in _build/default/test; test/dune builds the binary
   before it. *)
let rpq = Filename.concat (Sys.getcwd ()) "../bin/rpq_cli.exe"

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A work dir holding the databases and jobfiles, and [tmp], the TMPDIR
   every chaos run gets; removed after [f dir]. *)
let with_chaos_dir f =
  let dir = Filename.temp_file "rpq_chaos_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Unix.mkdir (Filename.concat dir "tmp") 0o700;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Runs [rpq ARGS] under TMPDIR=[dir]/tmp, stderr appended to
   [dir]/stderr; returns the exit code and stdout. *)
let run_rpq dir args =
  let out = Filename.concat dir "stdout" in
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat dir "tmp" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let fd_out = Unix.openfile out Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Filename.concat dir "stderr" in
  let fd_err = Unix.openfile err Unix.[ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid =
    Unix.create_process_env rpq (Array.of_list (rpq :: args)) env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  (code, read_file out)

(* Writes [dir]/NAME: [n] lines "[dir]/DB QUERY" per (n, db, query). *)
let jobfile dir name lines =
  let path = Filename.concat dir name in
  write_file path
    (String.concat ""
       (List.concat_map
          (fun (n, db, query) ->
            List.init n (fun _ -> Printf.sprintf "%s %s\n" (Filename.concat dir db) query))
          lines));
  path

(* The CI chaos databases: easy.db, and vc.db from `rpq gen -n 8`. *)
let chaos_fixtures dir =
  write_file (Filename.concat dir "easy.db") easy_db;
  let code, _ = run_rpq dir [ "gen"; "-n"; "8"; "-o"; Filename.concat dir "vc.db" ] in
  Alcotest.(check int) "rpq gen exits 0" 0 code

(* Live processes whose command line names [dir]: a child of the
   harness, or a worker of one. *)
let processes_naming dir =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun p -> p <> "" && String.for_all (fun c -> c >= '0' && c <= '9') p)
  |> List.filter (fun p ->
         match read_file (Printf.sprintf "/proc/%s/cmdline" p) with
         | cmdline -> contains cmdline dir
         | exception Sys_error _ -> false)

(* Nothing a chaos run started may outlive it: no process naming the
   work dir (a leftover is killed, so a failure does not hang the suite
   on the pipes it inherited), no file in its TMPDIR. *)
let check_nothing_left dir =
  let left = processes_naming dir in
  List.iter
    (fun p -> try Unix.kill (int_of_string p) Sys.sigkill with Unix.Unix_error _ -> ())
    left;
  Alcotest.(check (list string)) "no process outlives the run" [] left;
  Alcotest.(check (list string)) "TMPDIR ends empty" []
    (Array.to_list (Sys.readdir (Filename.concat dir "tmp")))

(* A CI chaos command: it exits 0, prints [expect], leaves nothing
   behind, and a second run prints the same bytes. *)
let test_chaos_command jobs args expect () =
  with_chaos_dir @@ fun dir ->
  chaos_fixtures dir;
  let jobs = jobfile dir "jobs.txt" jobs in
  let run () =
    let code, out = run_rpq dir ([ "chaos"; "--jobs"; jobs ] @ args) in
    Alcotest.(check int) "chaos exits 0" 0 code;
    check_nothing_left dir;
    out
  in
  let first = run () in
  List.iter (fun line -> check ("prints " ^ line) true (contains first line)) expect;
  Alcotest.(check string) "a second run prints the same bytes" first (run ())

let test_chaos_crash =
  test_chaos_command
    [ (40, "easy.db", "aa"); (20, "vc.db", "aa steps=400") ]
    [ "--crashes"; "8"; "--seed"; "7"; "--workers"; "4" ]
    [ "diffs: 0"; "8 of 8 planned crashes fired"; "chaos: 8 flight dumps validated" ]

let test_chaos_churn =
  test_chaos_command
    [ (8, "easy.db", "aa"); (4, "vc.db", "aa steps=400") ]
    [ "--churn"; "--kills"; "8"; "--seed"; "7"; "--workers"; "4" ]
    [ "diffs: 0" ]

let test_chaos_hedged_churn =
  test_chaos_command
    [
      (6, "easy.db", "aa");
      (3, "vc.db", "aa steps=400");
      (3, "vc.db", "aa faults=kill:200 steps=1000");
    ]
    [ "--churn"; "--kills"; "4"; "--seed"; "11"; "--workers"; "4"; "--hedge-after"; "0.05" ]
    [ "diffs: 0"; "hedge-after 0.05" ]

(* A job that comes back failed fails the run in either mode; the run
   still stops its server, reaps every child and removes its files. *)
let test_chaos_failure_cleans_up () =
  with_chaos_dir @@ fun dir ->
  chaos_fixtures dir;
  let jobs = jobfile dir "jobs.txt" [ (1, "easy.db", "aa"); (1, "easy.db", "a(") ] in
  let fails args why =
    let code, _ =
      run_rpq dir ([ "chaos"; "--jobs"; jobs; "--seed"; "7"; "--workers"; "2" ] @ args)
    in
    Alcotest.(check int) "chaos exits 1" 1 code;
    check ("says " ^ why) true (contains (read_file (Filename.concat dir "stderr")) why);
    check_nothing_left dir
  in
  fails [ "--churn"; "--kills"; "1" ] {|rpq: chaos: job "j2" came back failed|};
  fails [ "--crashes"; "1" ] "rpq: chaos: final resume settled with structured failures"

let () =
  Alcotest.run "runner"
    [
      ( "proto",
        [
          Alcotest.test_case "roundtrips" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects" `Quick test_proto_rejects;
          Alcotest.test_case "restamp real worker replies" `Quick test_restamp_real_replies;
          Alcotest.test_case "restamp non-canonical lines" `Quick test_restamp_noncanonical;
          QCheck_alcotest.to_alcotest prop_proto_job_roundtrip;
          QCheck_alcotest.to_alcotest prop_restamp_matches_reencode;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "truncate at every byte" `Quick test_journal_truncate_every_byte;
          Alcotest.test_case "checksum flips" `Quick test_journal_checksum_flip;
          Alcotest.test_case "sequence regression" `Quick test_journal_sequence_regression;
          Alcotest.test_case "non-v2 file refuses" `Quick test_journal_unheadered_refuses;
          Alcotest.test_case "exclusive lock" `Quick test_journal_lock;
          Alcotest.test_case "compaction" `Quick test_journal_compact;
          Alcotest.test_case "auto-compaction" `Quick test_journal_auto_compact;
          Alcotest.test_case "crash sites" `Quick test_journal_crash_sites;
          Alcotest.test_case "last done wins" `Quick test_journal_last_wins;
          Alcotest.test_case "sliced crc32 equals the bytewise one" `Quick test_journal_crc;
          Alcotest.test_case "the open returns load's entries" `Quick test_journal_open_load;
          Alcotest.test_case "job digest" `Quick test_job_digest;
          Alcotest.test_case "digest excludes delivery fields" `Quick
            test_digest_excludes_deadline_priority;
        ] );
      ( "policy",
        [
          Alcotest.test_case "run_job_locally" `Quick test_run_job_locally;
          Alcotest.test_case "worker handler is total" `Quick test_worker_handler_total;
          Alcotest.test_case "kept queries answer the same" `Quick test_query_cache;
          Alcotest.test_case "degradation is monotone" `Quick test_degrade_budget_monotone;
          Alcotest.test_case "verify_reply" `Quick test_verify_reply;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "kill sweep degrades to bounds" `Quick test_kill_sweep;
          Alcotest.test_case "kill:1 fails structurally" `Quick test_kill_every_tick_fails_structured;
          Alcotest.test_case "poison off spends retries" `Quick test_poison_disabled_spends_retries;
          Alcotest.test_case "kill:3 settles at the floor" `Quick test_kill3_settles_at_the_floor;
          Alcotest.test_case "wedge takes the sigkill path" `Quick test_wedge_timeout_path;
          Alcotest.test_case "reply order and duplicate ids" `Quick test_batch_order_and_dup;
          Alcotest.test_case "hedge settles exactly once" `Quick test_hedge_race_single_settlement;
          Alcotest.test_case "hedged equals unhedged" `Quick test_hedged_unhedged_parity;
          Alcotest.test_case "queued deadline sheds" `Quick test_deadline_queue_shed;
          Alcotest.test_case "deadline clamps the budget" `Quick test_deadline_clamps_budget;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "resume is identical" `Quick test_journal_resume_identical;
          Alcotest.test_case "partial journal" `Quick test_journal_resume_partial;
          Alcotest.test_case "corrupt answers rejected" `Quick test_journal_rejects_corrupt_answer;
          Alcotest.test_case "supervisor crash and resume" `Quick test_batch_crash_and_resume;
          Alcotest.test_case "batch journals the serve reply bytes" `Quick
            test_batch_journal_shares_reply_bytes;
          Alcotest.test_case "heap ceiling settles bounded" `Quick test_max_heap_bounds;
        ] );
      ( "serve",
        [
          Alcotest.test_case "roundtrip + shedding" `Quick test_serve_roundtrip_and_shedding;
          Alcotest.test_case "admission round-robin" `Quick test_admission_round_robin;
          Alcotest.test_case "admission inflight cap" `Quick test_admission_inflight_cap;
          Alcotest.test_case "admission priority classes" `Quick test_admission_priority_classes;
          Alcotest.test_case "disconnect aborts hedged job" `Quick
            test_serve_disconnect_aborts_hedge;
          Alcotest.test_case "half-close drains queued jobs" `Quick
            test_serve_socket_half_close_drains;
          Alcotest.test_case "write-timeout kills stalled client" `Quick test_transport_write_timeout;
          Alcotest.test_case "backpressure gates input" `Quick test_transport_backpressure;
          Alcotest.test_case "two clients, namespaced ids" `Quick test_serve_two_clients;
          Alcotest.test_case "journal seed + lock release" `Quick test_serve_journal_seed_and_release;
          Alcotest.test_case "shed rate by priority class" `Quick test_serve_priority_shed_rates;
          Alcotest.test_case "journal shares the client's reply bytes" `Quick
            test_serve_journal_shares_reply_bytes;
          Alcotest.test_case "stats sees the line above" `Quick test_serve_stats_sees_prior_job;
          Alcotest.test_case "malformed worker lines never settle" `Quick
            test_serve_malformed_worker_lines;
          Alcotest.test_case "every request exit releases once" `Quick test_serve_request_exits;
          Alcotest.test_case "a drain forks no worker after the grace" `Quick
            test_serve_drain_forks_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "stitched kill trace validates" `Quick test_trace_stitched_kill;
          Alcotest.test_case "orphan span rejects" `Quick test_trace_orphan_reject;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit / miss / lru" `Quick test_cache_hit_miss_lru;
          Alcotest.test_case "certificate gate" `Quick test_cache_cert_reject;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash schedule converges, twice alike" `Quick test_chaos_crash;
          Alcotest.test_case "churn equals the batch reference" `Quick test_chaos_churn;
          Alcotest.test_case "hedged churn equals the batch reference" `Quick
            test_chaos_hedged_churn;
          Alcotest.test_case "a failing run leaves nothing behind" `Quick
            test_chaos_failure_cleans_up;
        ] );
    ]
