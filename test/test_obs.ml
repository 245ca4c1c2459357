(* lib/obs: span nesting and ordering, sink well-formedness (parsed back
   with the strict JSON reader — [Cert.Json]'s emitter and parser must
   agree), histogram percentiles against a brute-force
   sort, and determinism of the work counters under seeded faults. *)

open Resilience
module Json = Cert.Json
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let check = Alcotest.(check bool)

let with_trace fmt ext f =
  let path = Filename.temp_file "rpq_trace" ext in
  Fun.protect
    ~finally:(fun () ->
      Trace.finish ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Trace.configure ~format:fmt path;
      f path)

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_exn what s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s does not parse: %s (input %S)" what e s

let str_field f v =
  match Option.bind (Json.member f v) Json.to_str_opt with
  | Some s -> s
  | None -> Alcotest.failf "event lacks string field %S" f

let num_field f v =
  match Option.bind (Json.member f v) Json.to_float_opt with
  | Some x -> x
  | None -> Alcotest.failf "event lacks numeric field %S" f

let int_field f v =
  match Option.bind (Json.member f v) Json.to_int_opt with
  | Some x -> x
  | None -> Alcotest.failf "event lacks int field %S" f

let emit_nested () =
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner1" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.instant "mark";
      Trace.with_span "inner2" (fun () ->
          Trace.with_span "leaf" (fun () -> ignore (Sys.opaque_identity 2))))

(* Spans are emitted on close: children must precede their parents, every
   event carries its depth, and a child's [ts, ts+dur] interval lies
   inside its parent's. *)
let test_jsonl_nesting () =
  with_trace Trace.Jsonl ".jsonl" (fun path ->
      emit_nested ();
      Trace.finish ();
      let lines =
        String.split_on_char '\n' (read_file path) |> List.filter (fun l -> String.trim l <> "")
      in
      let all = List.map (parse_exn "jsonl line") lines in
      (* The stream opens with exactly one meta record carrying the
         absolute epoch and the trace id. *)
      (match all with
      | meta :: _ ->
          Alcotest.(check string) "first record is meta" "meta" (str_field "ev" meta);
          check "meta has epoch" true (num_field "t0" meta > 0.0);
          check "meta has trace id" true (str_field "tid" meta <> "")
      | [] -> Alcotest.fail "empty trace");
      Alcotest.(check int)
        "one meta record" 1
        (List.length (List.filter (fun v -> str_field "ev" v = "meta") all));
      let events = List.filter (fun v -> str_field "ev" v <> "meta") all in
      let names = List.map (str_field "name") events in
      Alcotest.(check (list string))
        "close order (children first)"
        [ "inner1"; "mark"; "inner2"; "outer" ]
        (List.filter (fun n -> n <> "leaf") names);
      let spans = List.filter (fun v -> str_field "ev" v = "span") events in
      Alcotest.(check int) "span count" 4 (List.length spans);
      let interval v = (num_field "ts" v, num_field "ts" v +. num_field "dur" v) in
      let by_name n = List.find (fun v -> str_field "name" v = n) spans in
      List.iter
        (fun (child, parent) ->
          let c0, c1 = interval (by_name child) and p0, p1 = interval (by_name parent) in
          check (child ^ " inside " ^ parent) true (p0 <= c0 && c1 <= p1);
          Alcotest.(check int)
            (child ^ " depth")
            (int_field "depth" (by_name parent) + 1)
            (int_field "depth" (by_name child)))
        [ ("inner1", "outer"); ("inner2", "outer"); ("leaf", "inner2") ])

(* The Chrome sink must produce one well-formed JSON array of complete
   ("ph":"X") events with microsecond timestamps and the depth tag. *)
let test_chrome_sink () =
  with_trace Trace.Chrome ".json" (fun path ->
      emit_nested ();
      Trace.finish ();
      match parse_exn "chrome trace" (read_file path) with
      | Json.List events ->
          let spans =
            List.filter (fun v -> str_field "ph" v = "X") events
          in
          Alcotest.(check int) "span count" 4 (List.length spans);
          List.iter
            (fun v ->
              check "has name" true (str_field "name" v <> "");
              check "dur >= 0" true (num_field "dur" v >= 0.0);
              let args =
                match Json.member "args" v with
                | Some a -> a
                | None -> Alcotest.failf "event lacks args"
              in
              check "depth tag" true (int_field "depth" args >= 0))
            spans
      | _ -> Alcotest.fail "a Chrome trace must be one JSON array")

(* Stage accounting: only the outermost stage accumulates, so the totals
   sum to at most the enclosing wall time even when stages nest. *)
let test_stage_accounting () =
  let (), totals =
    Trace.with_stages (fun () ->
        Trace.stage "alpha" (fun () ->
            Trace.stage "beta" (fun () -> ignore (Sys.opaque_identity 1)));
        Trace.stage "beta" (fun () -> ignore (Sys.opaque_identity 2)))
  in
  let names = List.map fst totals in
  Alcotest.(check (list string)) "stage names, sorted" [ "alpha"; "beta" ] names;
  List.iter (fun (n, t) -> check (n ^ " nonnegative") true (t >= 0.0)) totals

let test_snapshot_roundtrip () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.counter" in
  let g = Metrics.gauge "test.obs.gauge" in
  let h = Metrics.histogram "test.obs.hist" in
  Metrics.add c 41;
  Metrics.incr c;
  Metrics.set g 2.5;
  Metrics.observe h 0.125;
  let v = parse_exn "metrics snapshot" (Json.to_string (Metrics.to_json ())) in
  Alcotest.(check int) "counter value" 42 (int_field "test.obs.counter" v);
  check "gauge value" true (num_field "test.obs.gauge" v = 2.5);
  (match Json.member "test.obs.hist" v with
  | Some hist -> Alcotest.(check int) "histogram count" 1 (int_field "count" hist)
  | None -> Alcotest.fail "histogram missing from snapshot");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, keeps the object" 0 (Metrics.count c)

(* Percentiles from the log-scale buckets against a brute-force sort: the
   bucket base is 2^(1/4), so a reported percentile is within ~19% of the
   true order statistic. Samples come from a deterministic LCG. *)
let test_histogram_percentiles () =
  Metrics.reset ();
  let h = Metrics.histogram "test.obs.lcg" in
  let state = ref 123456789 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (* spread over ~6 orders of magnitude to exercise many buckets *)
    1e-6 *. float_of_int (1 + (!state mod 999_999))
  in
  let n = 2000 in
  let xs = Array.init n (fun _ -> rand ()) in
  Array.iter (Metrics.observe h) xs;
  Alcotest.(check int) "observations" n (Metrics.observations h);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let est = Metrics.percentile h q in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let truth = sorted.(rank - 1) in
      let rel = Float.abs (est -. truth) /. truth in
      check (Printf.sprintf "q=%.2f within 19%% (est %g, true %g)" q est truth) true (rel <= 0.19))
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  check "p0 clamped to min" true (Metrics.percentile h 0.0 >= sorted.(0));
  check "p100 clamped to max" true (Metrics.percentile h 1.0 <= sorted.(n - 1))

(* Work counters (budget ticks, B&B nodes, pivots, oracle calls) must be
   deterministic: two identical budgeted solves under the same seeded
   fault plan produce identical counter snapshots. Only time-valued
   metrics (gauges, histograms) may differ between runs. *)
let counters_only () =
  List.filter_map
    (function n, Metrics.Counter c -> Some (n, c) | _, (Metrics.Gauge _ | Metrics.Histogram _) -> None)
    (Metrics.snapshot ())

let test_counter_determinism () =
  let pre, l = Gadgets.gadget_aa () in
  let db = Gadgets.encode pre (Graphs.Ugraph.complete 4) in
  let run () =
    Metrics.reset ();
    Faults.with_plan
      (Faults.Seeded { seed = 7; period = 200 })
      (fun () ->
        let b = Budget.create ~steps:3_000 () in
        ignore (Solver.solve_bounded ~budget:b db l));
    counters_only ()
  in
  let first = run () in
  let second = run () in
  check "some work was counted" true (List.exists (fun (_, n) -> n > 0) first);
  Alcotest.(check (list (pair string int))) "counters match across identical runs" first second

(* ---- span context and cross-process identity ---- *)

let test_ctx_roundtrip () =
  let cases =
    [
      { Trace.trace_id = "0a1b2c"; span_id = "4d2.7"; sampled = true };
      { Trace.trace_id = "x"; span_id = "y"; sampled = false };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "ctx roundtrips" true
        (Trace.ctx_of_string (Trace.ctx_to_string c) = Some c))
    cases;
  check "garbage rejected" true (Trace.ctx_of_string "nope" = None);
  check "bad flag rejected" true (Trace.ctx_of_string "a:b:2" = None);
  check "empty rejected" true (Trace.ctx_of_string "" = None)

let jsonl_events path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (parse_exn "jsonl line")

(* Every span carries its identity (tid/sid/psid): a child's psid is its
   parent's sid, and every event shares the meta record's trace id. *)
let test_span_identity () =
  with_trace Trace.Jsonl ".jsonl" (fun path ->
      emit_nested ();
      Trace.finish ();
      let all = jsonl_events path in
      let tid = str_field "tid" (List.hd all) in
      let spans = List.filter (fun v -> str_field "ev" v = "span") all in
      List.iter (fun v -> Alcotest.(check string) "same trace id" tid (str_field "tid" v)) spans;
      let by_name n = List.find (fun v -> str_field "name" v = n) spans in
      List.iter
        (fun (child, parent) ->
          Alcotest.(check string)
            (child ^ " parented by " ^ parent)
            (str_field "sid" (by_name parent))
            (str_field "psid" (by_name child)))
        [ ("inner1", "outer"); ("inner2", "outer"); ("leaf", "inner2") ];
      check "root has no psid" true (Json.member "psid" (by_name "outer") = None))

(* A propagated remote parent: local root spans adopt its trace id and
   name it as psid; a cleared sampling bit suppresses emission. *)
let test_remote_parent () =
  with_trace Trace.Jsonl ".jsonl" (fun path ->
      let remote = { Trace.trace_id = "feed01"; span_id = "abc.1"; sampled = true } in
      Trace.with_parent (Some remote) (fun () -> Trace.with_span "adopted" ignore);
      let unsampled = { remote with Trace.sampled = false } in
      Trace.with_parent (Some unsampled) (fun () -> Trace.with_span "suppressed" ignore);
      Trace.finish ();
      let spans = List.filter (fun v -> str_field "ev" v = "span") (jsonl_events path) in
      Alcotest.(check int) "suppressed span not emitted" 1 (List.length spans);
      let s = List.hd spans in
      Alcotest.(check string) "adopted name" "adopted" (str_field "name" s);
      Alcotest.(check string) "adopted trace id" "feed01" (str_field "tid" s);
      Alcotest.(check string) "remote parent as psid" "abc.1" (str_field "psid" s))

(* A manual span handle survives across event-loop turns: its context is
   available before it closes, and closing is idempotent. *)
let test_manual_span () =
  with_trace Trace.Jsonl ".jsonl" (fun path ->
      let h =
        match Trace.open_span "job" with
        | Some h -> h
        | None -> Alcotest.fail "open_span with a sink must yield a handle"
      in
      let ctx = Trace.handle_ctx h in
      check "handle has a span id" true (ctx.Trace.span_id <> "");
      Trace.close_span ~args:[ ("outcome", Json.Str "exact") ] h;
      Trace.close_span h;
      Trace.finish ();
      let spans = List.filter (fun v -> str_field "ev" v = "span") (jsonl_events path) in
      Alcotest.(check int) "close_span is idempotent" 1 (List.length spans);
      Alcotest.(check string)
        "handle ctx names the span"
        ctx.Trace.span_id
        (str_field "sid" (List.hd spans)))

(* ---- structured logging ---- *)

let with_log_file f =
  let path = Filename.temp_file "rpq_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close_file ();
      Obs.Log.set_level (Some Obs.Log.Warn);
      Obs.Log.reset_repeats ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Log.set_file path;
      f path)

let log_lines path =
  Obs.Log.close_file ();
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> String.trim l <> "")

let test_log_levels () =
  with_log_file (fun path ->
      Obs.Log.set_level (Some Obs.Log.Warn);
      Obs.Log.debug "below" [];
      Obs.Log.info "below" [];
      Obs.Log.warn "at" [ ("k", Json.Int 1) ];
      Obs.Log.error "above" [];
      let lines = log_lines path in
      Alcotest.(check int) "threshold filters" 2 (List.length lines);
      let v = parse_exn "log line" (List.hd lines) in
      Alcotest.(check string) "level tag" "warn" (str_field "lvl" v);
      Alcotest.(check string) "reason code" "at" (str_field "event" v);
      Alcotest.(check int) "context field" 1 (int_field "k" v);
      check "timestamp present" true (num_field "ts" v > 0.0))

(* Count-based repeat suppression: of 20 identical events, occurrences
   1-4 pass, then only powers of two (8, 16) — deterministically. *)
let test_log_rate_limit () =
  with_log_file (fun path ->
      Obs.Log.set_level (Some Obs.Log.Warn);
      Obs.Log.reset_repeats ();
      for _ = 1 to 20 do
        Obs.Log.warn "noisy" []
      done;
      Obs.Log.warn "other" [];
      let lines = log_lines path in
      let events = List.map (parse_exn "log line") lines in
      let noisy = List.filter (fun v -> str_field "event" v = "noisy") events in
      Alcotest.(check int) "4 + {8,16} emitted" 6 (List.length noisy);
      let repeats = List.filter_map (fun v -> Json.member "repeat" v) noisy in
      Alcotest.(check int) "suppression tagged" 2 (List.length repeats);
      Alcotest.(check int)
        "distinct reason codes tracked separately" 1
        (List.length (List.filter (fun v -> str_field "event" v = "other") events)))

(* ---- flight recorder ---- *)

let test_flight_dump () =
  let path = Filename.temp_file "rpq_flight" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Flight.configure ~cap:4 path;
      check "armed" true (Obs.Flight.enabled ());
      for i = 1 to 6 do
        Obs.Flight.note (Json.Obj [ ("n", Json.Int i) ])
      done;
      Obs.Flight.dump ~reason:"test:boom" ();
      let v = parse_exn "flight dump" (read_file path) in
      Alcotest.(check int) "schema version" 1 (int_field "v" v);
      Alcotest.(check string) "reason" "test:boom" (str_field "reason" v);
      Alcotest.(check int) "dropped = overflow" 2 (int_field "dropped" v);
      (match Json.member "events" v with
      | Some (Json.List evs) ->
          Alcotest.(check int) "ring keeps the newest cap events" 4 (List.length evs);
          Alcotest.(check (list int))
            "oldest to newest" [ 3; 4; 5; 6 ]
            (List.map (int_field "n") evs)
      | _ -> Alcotest.fail "dump lacks events array");
      check "metrics snapshot attached" true (Json.member "metrics" v <> None))

(* Log records land in the flight ring even below the emission
   threshold: the black box sees what stderr does not. *)
let test_flight_sees_suppressed_logs () =
  let path = Filename.temp_file "rpq_flight" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.disable ();
      Obs.Log.set_level (Some Obs.Log.Warn);
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Flight.configure ~cap:8 path;
      Obs.Log.set_level (Some Obs.Log.Error);
      Obs.Log.reset_repeats ();
      Obs.Log.debug "quiet-event" [ ("marker", Json.Int 99) ];
      Obs.Flight.dump ~reason:"test" ();
      let v = parse_exn "flight dump" (read_file path) in
      match Json.member "events" v with
      | Some (Json.List evs) ->
          check "suppressed log noted" true
            (List.exists
               (fun e ->
                 match Option.bind (Json.member "event" e) Json.to_str_opt with
                 | Some "quiet-event" -> true
                 | _ -> false)
               evs)
      | _ -> Alcotest.fail "dump lacks events array")

(* ---- Prometheus exposition ---- *)

let test_prometheus_exposition () =
  Metrics.reset ();
  let c1 = Metrics.counter "test.prom.zeta" in
  let c2 = Metrics.counter "test.prom.alpha" in
  let g = Metrics.gauge "test.prom.gauge" in
  let h = Metrics.histogram "test.prom.hist_s" in
  Metrics.add c1 7;
  Metrics.incr c2;
  Metrics.set g 1.5;
  Metrics.observe h 0.25;
  Metrics.observe h 0.5;
  let text = Metrics.prometheus_string () in
  let again = Metrics.prometheus_string () in
  Alcotest.(check string) "render is deterministic" text again;
  let lines = String.split_on_char '\n' text in
  let has_line l = List.mem l lines in
  check "counter sample" true (has_line "rpq_test_prom_zeta 7");
  check "counter type" true (has_line "# TYPE rpq_test_prom_zeta counter");
  check "gauge sample" true (has_line "rpq_test_prom_gauge 1.5");
  check "histogram count" true (has_line "rpq_test_prom_hist_s_count 2");
  check "histogram sum" true (has_line "rpq_test_prom_hist_s_sum 0.75");
  (* Families appear in sorted metric-name order. *)
  let family_names =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; _ ] -> Some name
        | _ -> None)
      lines
  in
  Alcotest.(check (list string))
    "families sorted" (List.sort compare family_names) family_names;
  (* The counters-only view drops the time-valued families. *)
  let counters = Metrics.prometheus_string ~only_counters:true () in
  let clines = String.split_on_char '\n' counters in
  check "counters-only keeps counters" true (List.mem "rpq_test_prom_zeta 7" clines);
  check "counters-only drops gauges" true
    (not (List.exists (String.starts_with ~prefix:"rpq_test_prom_gauge") clines));
  check "counters-only drops histograms" true
    (not (List.exists (String.starts_with ~prefix:"rpq_test_prom_hist") clines))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "jsonl nesting and order" `Quick test_jsonl_nesting;
          Alcotest.test_case "chrome sink well-formed" `Quick test_chrome_sink;
          Alcotest.test_case "stage accounting" `Quick test_stage_accounting;
          Alcotest.test_case "span context roundtrip" `Quick test_ctx_roundtrip;
          Alcotest.test_case "span identity fields" `Quick test_span_identity;
          Alcotest.test_case "remote parent adoption" `Quick test_remote_parent;
          Alcotest.test_case "manual span handles" `Quick test_manual_span;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and structure" `Quick test_log_levels;
          Alcotest.test_case "repeat rate limiting" `Quick test_log_rate_limit;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring overflow and atomic dump" `Quick test_flight_dump;
          Alcotest.test_case "records suppressed log events" `Quick
            test_flight_sees_suppressed_logs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "counter determinism under seeded faults" `Quick
            test_counter_determinism;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
        ] );
    ]
