(* End-to-end benchmark of the resilience server. See README.md.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs from the root of a built checkout. Prints every metric by name
   with its unit, then one JSON result line; exits nonzero when a reply's
   certificate is rejected or an answer differs from the in-process
   reference. *)

module Proto = Runner.Proto

let now = Obs.Clock.now
let dir = ".perfbench-run"
let workloads = [ "ptime_certified"; "hard_budgeted"; "cache_hot"; "batch_journal" ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {" ^ String.concat "," workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "--seed", seconds, trace = 1)

(* ---- statistics ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---- the correctness gate ---- *)

(* Maps [f] over [xs] in two forked processes, one per core, while the
   server is idle or down. [f]'s results travel back as lines. *)
let par_map f xs =
  let n = Array.length xs in
  let kids =
    List.init 2 (fun k ->
        let path = Filename.concat dir (Printf.sprintf "par%d.out" k) in
        match Unix.fork () with
        | 0 ->
            let code =
              try
                Out_channel.with_open_bin path (fun oc ->
                    for i = 0 to n - 1 do
                      if i mod 2 = k then begin
                        output_string oc (String.map (function '\n' -> ' ' | c -> c) (f xs.(i)));
                        output_char oc '\n'
                      end
                    done);
                0
              with _ -> 1
            in
            Unix._exit code
        | pid -> (k, pid, path))
  in
  let out = Array.make n "" in
  List.iter
    (fun (k, pid, path) ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          List.iteri
            (fun j line -> if (2 * j) + k < n then out.((2 * j) + k) <- line)
            (String.split_on_char '\n' (Procs.read_file path))
      | _ -> failwith "a reference process failed")
    kids;
  out

(* ---- host speed ---- *)

(* A fixed computation on the standard library alone (sorting, hashing,
   buffer writes), so no change to the program under test can alter its
   time; what does is the host. On a shared host CPU speed drifts by up to
   a third over minutes, far more than the changes the benchmark must
   resolve. *)
let calibration_work () =
  let n = 50_000 in
  let a = Array.init n (fun i -> i * 7919 land 0xFFFFF) in
  Array.sort compare a;
  let h = Hashtbl.create n in
  Array.iteri (fun i x -> Hashtbl.replace h x i) a;
  let b = Buffer.create 1024 in
  Hashtbl.iter (fun k v -> if k land 63 = 0 then Buffer.add_string b (string_of_int (k + v))) h;
  Buffer.length b

(* Median seconds of [calibration_work], five runs on each core at once,
   as the two workers load them. *)
let calibrate () =
  let run _ =
    let t0 = now () in
    ignore (Sys.opaque_identity (calibration_work ()));
    Printf.sprintf "%.9f" (now () -. t0)
  in
  median (List.map float_of_string (Array.to_list (par_map run (Array.make 10 ()))))

(* [calibrate] on the reference host (see README.md). Time metrics are
   reported at its speed: scaled by [reference_s] over the mean of the
   calibrations taken just before and just after the timed window. *)
let reference_s = 0.032

(* What must agree between a served reply and the reference: verdict,
   value or bounds, and budget steps (the id is compared on its own). *)
let answer (r : Proto.reply) =
  let v =
    match r.Proto.verdict with
    | Proto.V_exact { value; _ } -> "exact " ^ Cert.Value.to_string value
    | Proto.V_bounded { lower; upper; _ } ->
        Printf.sprintf "bounded %s..%s" (Cert.Value.to_string lower) (Cert.Value.to_string upper)
    | Proto.V_failed { kind; _ } -> "error " ^ kind
  in
  Printf.sprintf "%s steps=%d" v r.Proto.steps

(* A served reply to check: its expected id, the index of its job in the
   workload's distinct list, the reply line ([None]: no reply) and its
   latency. *)
type item = { id : string; job : int; line : string option; latency_s : float }

let verdict refs it =
  match it.line with
  | None -> it.id ^ ": no reply"
  | Some line -> (
      match Proto.reply_of_json line with
      | Error e -> it.id ^ ": unparseable reply: " ^ e
      | Ok r -> (
          match (r.Proto.verdict, Cert.Checker.check_reply r) with
          | _ when r.Proto.id <> it.id -> Printf.sprintf "%s: reply carries id %s" it.id r.Proto.id
          | Proto.V_failed { kind; message; _ }, _ ->
              Printf.sprintf "%s: error reply %s: %s" it.id kind message
          | _, Error e -> Printf.sprintf "%s: certificate rejected: %s" it.id e
          | _, Ok () ->
              let a = answer r in
              if a = refs.(it.job) then "ok"
              else Printf.sprintf "%s: answer %s, reference %s" it.id a refs.(it.job)))

(* Reference answers from [Runner.run_job_locally] for every job the items
   use, then every reply re-checked and compared. Returns the failure
   messages, the reference answers by job index, and their digest. *)
let gate (w : Workloads.t) items =
  let used = Array.make (Array.length w.Workloads.distinct) false in
  List.iter (fun it -> used.(it.job) <- true) items;
  let todo = List.filter (fun i -> used.(i)) (List.init (Array.length used) Fun.id) in
  let answers =
    par_map (fun i -> answer (Runner.run_job_locally w.Workloads.distinct.(i))) (Array.of_list todo)
  in
  let refs = Array.make (Array.length used) "" in
  List.iteri (fun k i -> refs.(i) <- answers.(k)) todo;
  let results = par_map (verdict refs) (Array.of_list items) in
  let failures = List.filter (fun s -> s <> "ok") (Array.to_list results) in
  let digest =
    let line i = w.Workloads.distinct.(i).Proto.id ^ " " ^ refs.(i) in
    Digest.to_hex (Digest.string (String.concat "\n" (List.map line todo)))
  in
  (failures, refs, digest)

(* ---- runs ---- *)

type run = {
  setup_s : float;
  latencies_s : float list;  (** timed jobs only *)
  throughput : float;
  cpu_s : float;  (** server (or batch) and workers, over the timed jobs *)
  peak_rss_mb : float;
  items : item list;  (** every job sent, warm-up included *)
  counters : (string * float) list;  (** server scrape; [] for batch *)
  calibration_s : float;  (** mean [calibrate] before and after the window *)
}

let setups = 15

(* Spawns the server [setups] times and reports the median set-up time at
   the reference host speed (calibrated just before); the last server
   stays up. *)
let start_measured () =
  let calibration = calibrate () in
  let rec go k acc =
    let s, t = Procs.start_server ~dir in
    if k = 1 then begin
      Printf.printf "  set-up times (s): %s; host calibration %.4fs\n"
        (String.concat " " (List.map (Printf.sprintf "%.4f") (t :: acc)))
        calibration;
      (s, median (t :: acc) *. reference_s /. calibration)
    end
    else begin
      Procs.stop_server ~drain:false s;
      go (k - 1) (t :: acc)
    end
  in
  go setups []

let live = ref None

let serve_run (w : Workloads.t) ~seconds =
  let t_setup = now () in
  let server, setup_s = start_measured () in
  let t_warm = now () in
  live := Some server;
  let loop ~until stream =
    let pos = ref 0 in
    let next () =
      if !pos >= Array.length stream then None
      else begin
        let k = !pos in
        incr pos;
        let job = { (w.Workloads.distinct.(stream.(k))) with Proto.id = Workloads.request_id k } in
        Some (k, Proto.job_to_wire_json job)
      end
    in
    Procs.closed_loop ~sock:server.Procs.sock ~conns:2 ~until ~next
  in
  let items_of stream samples =
    List.map
      (fun (s : Procs.sample) ->
        {
          id = Workloads.request_id s.Procs.index;
          job = stream.(s.Procs.index);
          line = Some s.Procs.line;
          latency_s = s.Procs.latency_s;
        })
      samples
  in
  (* The warm-up fills the cache; its replies are checked, not timed. *)
  let warm, _ = loop ~until:infinity w.Workloads.warm in
  Printf.printf "  server starts %.1fs, warm-up %.1fs\n%!" (t_warm -. t_setup) (now () -. t_warm);
  let before = calibrate () in
  let cpu0 = Procs.family_cpu_s server.Procs.pid in
  let t0 = now () in
  let timed, last = loop ~until:(t0 +. float_of_int seconds) w.Workloads.requests in
  let cpu_s = Procs.family_cpu_s server.Procs.pid -. cpu0 in
  let after = calibrate () in
  let peak_rss_mb = Procs.family_peak_rss_mb server.Procs.pid in
  let counters = Procs.scrape server "/metrics/counters" @ Procs.scrape server "/metrics" in
  Procs.stop_server server;
  live := None;
  let n = List.length timed in
  {
    setup_s;
    latencies_s = List.map (fun (s : Procs.sample) -> s.Procs.latency_s) timed;
    throughput = float_of_int n /. (last -. t0);
    cpu_s;
    peak_rss_mb;
    items = items_of w.Workloads.warm warm @ items_of w.Workloads.requests timed;
    counters;
    calibration_s = (before +. after) /. 2.0;
  }

(* Runs the whole list through [rpq batch --journal] again and again
   until the window is spent; latency is each reply's supervisor-side
   [wall_s]. Set-up time is the server's, like every workload's. *)
let batch_run (w : Workloads.t) ~seconds =
  let server, setup_s = start_measured () in
  Procs.stop_server ~drain:false server;
  let jobfile = Filename.concat dir "batch.jobs" in
  Out_channel.with_open_bin jobfile (fun oc ->
      Array.iteri
        (fun i (j : Proto.job) ->
          let db = Filename.concat dir (Printf.sprintf "b%d.db" i) in
          Out_channel.with_open_bin db (fun o -> output_string o j.Proto.db);
          let steps = j.Proto.budget.Proto.steps in
          Printf.fprintf oc "%s %s%s\n" db j.Proto.query
            (Option.fold ~none:"" ~some:(Printf.sprintf " steps=%d") steps))
        w.Workloads.distinct);
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let before = calibrate () in
  let cpu0 = cpu () in
  let t0 = now () in
  let rec go acc =
    if now () -. t0 >= float_of_int seconds && acc <> [] then List.rev acc
    else go (Procs.run_batch ~dir ~jobfile :: acc)
  in
  let runs = go [] in
  let cpu_s = cpu () -. cpu0 in
  let after = calibrate () in
  let n_jobs = Array.length w.Workloads.distinct in
  let items =
    List.concat_map
      (fun (l, _, _) ->
        let a = Array.of_list l in
        List.init n_jobs (fun i ->
            let line = if i < Array.length a then Some a.(i) else None in
            let latency_s =
              match Option.map Proto.reply_of_json line with
              | Some (Ok r) -> r.Proto.wall_s
              | Some (Error _) | None -> nan
            in
            { id = Printf.sprintf "j%d" (i + 1); job = i; line; latency_s }))
      runs
  in
  {
    setup_s;
    latencies_s = List.filter Float.is_finite (List.map (fun it -> it.latency_s) items);
    throughput =
      float_of_int (List.length items) /. List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 runs;
    cpu_s;
    peak_rss_mb = List.fold_left (fun acc (_, _, p) -> Float.max acc p) 0.0 runs;
    items;
    counters = [];
    calibration_s = (before +. after) /. 2.0;
  }

(* ---- the traced pass ---- *)

let pass_budget_s = 2.0

(* The jobs of the window, first use first. An untraced pass over them
   stops after [pass_budget_s]; the traced pass replays the same prefix.
   Returns the traced replies with their job indices. *)
let traced_pass (w : Workloads.t) items =
  let seen = Hashtbl.create 64 in
  let order =
    List.filter_map
      (fun it ->
        if Hashtbl.mem seen it.job then None
        else begin
          Hashtbl.replace seen it.job ();
          Some it.job
        end)
      items
  in
  let journal = Filename.concat dir "traced.journal" in
  let jobs = List.map (fun i -> w.Workloads.distinct.(i)) order in
  let untraced_replies, untraced = Layers.pass ~budget_s:pass_budget_s ~journal jobs in
  let chosen = List.filteri (fun k _ -> k < List.length untraced_replies) order in
  let latency i = (List.find (fun it -> it.job = i) items).latency_s in
  Hashtbl.reset Layers.samples;
  let spans = Filename.concat dir "spans.jsonl" in
  Obs.Trace.configure ~format:Obs.Trace.Jsonl spans;
  let replies, traced =
    Layers.pass ~journal (List.map (fun i -> w.Workloads.distinct.(i)) chosen)
  in
  Obs.Trace.finish ();
  (* What serving adds to a job: its served latency minus the same job's
     [run_job_locally] time in process. *)
  let overhead_ms =
    median (List.map2 (fun i (_, us) -> (latency i -. (us /. 1e6)) *. 1000.0) chosen replies)
  in
  (List.combine chosen (List.map fst replies), traced /. untraced, overhead_ms, spans)

let trace_check spans =
  let out = Filename.concat dir "trace-check.out" in
  let err = Filename.concat dir "trace-check.err" in
  let pid = Procs.spawn ~out ~err [ "trace-check"; spans ] in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
      let text = Procs.read_file out in
      (* "trace-check: FILE: N events, M spans, ..." *)
      let words = String.split_on_char ' ' text in
      let rec find = function
        | n :: "spans," :: _ -> int_of_string_opt n
        | _ :: rest -> find rest
        | [] -> None
      in
      Ok (Option.value (find words) ~default:0)
  | _ -> Error (String.trim (Procs.read_file err))

(* ---- output ---- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_result ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v) unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) metrics

let main () =
  let workload, seed, seconds, trace = args () in
  if not (Sys.file_exists Procs.rpq) then begin
    prerr_endline ("perfbench: " ^ Procs.rpq ^ " is not built; run perfbench/run.sh");
    exit 2
  end;
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () -> Option.iter Procs.stop_server !live);
  let t_start = now () in
  let w =
    match workload with
    | "ptime_certified" -> Workloads.ptime_certified ~seed ~seconds
    | "hard_budgeted" -> Workloads.hard_budgeted ~seed ~seconds
    | "cache_hot" -> Workloads.cache_hot ~seed ~seconds
    | _ -> Workloads.batch_journal ~seed
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b nproc=%d workers=2 clients=2\n" workload
    seed seconds trace (Domain.recommended_domain_count ());
  Printf.printf "  job list digest: %s (%d distinct jobs)\n%!" (Workloads.digest w)
    (Array.length w.Workloads.distinct);
  let t_gen = now () in
  let run = if workload = "batch_journal" then batch_run w ~seconds else serve_run w ~seconds in
  let t_run = now () in
  let failures, refs, answers = gate w run.items in
  Printf.printf "  phases: generate %.1fs, run %.1fs, gate %.1fs\n" (t_gen -. t_start)
    (t_run -. t_gen) (now () -. t_run);
  let attempted = List.length run.items in
  let timed = List.length run.latencies_s in
  Printf.printf "  answer digest: %s\n" answers;
  let error_rate = float_of_int (List.length failures) /. float_of_int (max 1 attempted) in
  Printf.printf "  error_rate %g (%d failed of %d attempted)\n" error_rate (List.length failures)
    attempted;
  List.iteri (fun i f -> if i < 10 then Printf.printf "  FAILED %s\n" f) failures;
  let ms = List.map (fun s -> s *. 1000.0) run.latencies_s in
  let raw =
    [
      ("throughput_jobs_s", run.throughput, "jobs/s");
      ("latency_p50_ms", quantile ms 0.5, "ms");
      ("latency_p90_ms", quantile ms 0.9, "ms");
      ("cpu_ms_per_job", run.cpu_s *. 1000.0 /. float_of_int (max 1 timed), "ms");
    ]
  in
  (* A rate scales inversely to a time. *)
  let scale = reference_s /. run.calibration_s in
  let scaled =
    List.map
      (fun (name, v, unit) -> (name, (if unit = "jobs/s" then v /. scale else v *. scale), unit))
      raw
  in
  let e2e =
    (("setup_s", run.setup_s, "s") :: scaled)
    @ [ ("peak_rss_mb", run.peak_rss_mb, "MiB"); ("success_rate", 1.0 -. error_rate, "ratio") ]
  in
  Printf.printf "host calibration %.4fs against the reference %.4fs; as measured:\n"
    run.calibration_s reference_s;
  print_metrics raw;
  Printf.printf "end-to-end (%d timed jobs; times at the reference host speed):\n" timed;
  print_metrics e2e;
  let failures, metrics =
    if not trace then (failures, e2e)
    else begin
      let t_trace = now () in
      let traced, overhead, serve_overhead_ms, spans = traced_pass w run.items in
      let trace_failures =
        List.filter_map
          (fun (i, r) ->
            if answer r = refs.(i) then None
            else
              Some (Printf.sprintf "traced pass: job %d: %s, reference %s" i (answer r) refs.(i)))
          traced
      in
      let t_sweep = now () in
      let slopes = Layers.sweep () in
      Printf.printf "  traced passes %.1fs, sweep %.1fs\n" (t_sweep -. t_trace) (now () -. t_sweep);
      let span_count, check_failures =
        match trace_check spans with Ok n -> (n, []) | Error e -> (0, [ "trace-check: " ^ e ])
      in
      let p50 (name, unit) = (name, median (Layers.values name), unit) in
      let counter name = Option.value (List.assoc_opt name run.counters) ~default:0.0 in
      let hits = counter "rpq_cache_hits" and misses = counter "rpq_cache_misses" in
      let layers =
        List.map p50
          [
            ("certify.cut_us", "us");
            ("flow.min_cut_us", "us");
            ("local_solver.network_us", "us");
            ("local_solver.product_edges", "count");
            ("bcl.solve_us", "us");
            ("bcl.cert_us", "us");
            ("proto.job_decode_us", "us");
            ("proto.reply_encode_us", "us");
            ("proto.reply_decode_us", "us");
            ("proto.reply_bytes", "bytes");
            ("journal.append_us", "us");
            ("journal.bytes_per_job", "bytes");
            ("checker.check_reply_us", "us");
            ("cache.find_hit_us", "us");
            ("classify.classify_us", "us");
            ("solver.solve_bounded_us", "us");
            ("budget.steps", "count");
            ("bnb.nodes", "count");
            ("simplex.pivots", "count");
            ("serialize.parse_us", "us");
            ("runner.job_us", "us");
          ]
        @ [
            ("cache.hit_ratio", (if hits > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
            ("serve.overhead_ms", serve_overhead_ms, "ms");
            ("server.jobs", counter "rpq_runner_jobs", "count");
            ("server.cache_hits", hits, "count");
            ("server.cache_misses", misses, "count");
            ("server.retries", counter "rpq_runner_retries", "count");
            ( "server.worker_deaths",
              counter "rpq_runner_deaths_crash" +. counter "rpq_runner_deaths_timeout"
              +. counter "rpq_runner_deaths_malformed",
              "count" );
            ("server.shed", counter "rpq_runner_shed", "count");
            ( "server.dispatch_latency_p50_ms",
              1000.0 *. counter {|rpq_runner_dispatch_latency_s{quantile="0.5"}|},
              "ms" );
            ( "server.journal_append_p50_ms",
              1000.0 *. counter {|rpq_runner_journal_append_s{quantile="0.5"}|},
              "ms" );
          ]
        @ List.map (fun (name, slope, _) -> (name, slope, "exp")) slopes
        @ [
            ("trace.overhead_ratio", overhead, "ratio");
            ("trace.spans", float_of_int span_count, "count");
          ]
      in
      Printf.printf "per-layer (traced pass over %d jobs; server counts over %g jobs):\n"
        (List.length traced) (counter "rpq_runner_jobs");
      print_metrics layers;
      List.iter
        (fun (name, slope, paper) ->
          Printf.printf "  %s = %.2f against |D| (paper exponent %d, %s)\n" name slope paper
            (if paper = 1 then "Thm 3.3" else "Prop 7.5"))
        slopes;
      (failures @ trace_failures @ check_failures, layers)
    end
  in
  let correct = failures = [] in
  print_endline (json_result ~correct ~attempted ~failed:(List.length failures) metrics);
  exit (if correct then 0 else 1)

let () = main ()
