(* The traced pass: replays a workload's jobs in the benchmark process and
   times each call into a layer's public function under an [Obs.Trace]
   span named after the layer. Also the scaling sweep that sets layer
   cost against instance size. *)

open Resilience
module Proto = Runner.Proto

let now = Obs.Clock.now

(* Per-layer samples, by metric name. *)
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 32

let record name v =
  match Hashtbl.find_opt samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace samples name (ref [ v ])

let values name = match Hashtbl.find_opt samples name with Some l -> !l | None -> []

(* Times [f] under a span [name] and records the microseconds as
   [name ^ "_us"]. *)
let layer name f =
  let t0 = now () in
  let r = Obs.Trace.with_span name f in
  let us = (now () -. t0) *. 1e6 in
  record (name ^ "_us") us;
  (r, us)

let layer_ name f = fst (layer name f)

let get_ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

type sinks = { journal : Runner.Journal.t; cache : Runner.Cache.t }

(* One job through every layer it exercises, the way the worker and the
   supervisor reach them: wire decode, database parse, classification,
   then the algorithm's own layers (product network, MinCut and cut
   certificate for local languages; the BCL construction with and without
   its certificate; the budgeted anytime chain otherwise), then the whole
   job through [Runner.run_job_locally], and the reply through encode,
   decode, certificate check, journal append and a cache hit. Returns the
   [run_job_locally] reply and its time in microseconds. *)
let replay sinks (job : Proto.job) =
  let wire = Proto.job_to_wire_json job in
  let job = get_ok "job decode" (layer_ "proto.job_decode" (fun () -> Proto.job_of_json wire)) in
  let parsed =
    get_ok "db parse" (layer_ "serialize.parse" (fun () -> Graphdb.Serialize.parse job.Proto.db))
  in
  let d = parsed.Graphdb.Serialize.db in
  let nfa = Automata.Lang.of_string job.Proto.query in
  let cls = layer_ "classify.classify" (fun () -> Classify.classify nfa) in
  (match cls.Classify.verdict with
  | Classify.PTime Classify.Local ->
      let ro = Automata.Local.ro_enfa nfa in
      let { Local_solver.net; source; sink; fact_edge } =
        layer_ "local_solver.network" (fun () -> Local_solver.build_network d ~ro)
      in
      record "local_solver.product_edges" (float_of_int (Flow.Network.edge_count net));
      let cut, flow =
        layer_ "flow.min_cut" (fun () -> Flow.Network.min_cut_certified net ~source ~sink)
      in
      ignore
        (layer_ "certify.cut" (fun () ->
             Certify.cut ~net ~source ~sink ~cut ~flow ~fact_edge ~forced:[]))
  | Classify.PTime Classify.Bipartite_chain ->
      let _, plain = layer "bcl.solve" (fun () -> ignore (get_ok "bcl" (Bcl.solve d nfa))) in
      let _, full =
        layer "bcl.solve_certified" (fun () -> ignore (get_ok "bcl" (Bcl.solve_certified d nfa)))
      in
      record "bcl.cert_us" (full -. plain)
  | _ ->
      let budget = Budget.create ?steps:job.Proto.budget.Proto.steps () in
      let nodes = counter "bnb.nodes" and pivots = counter "simplex.pivots" in
      ignore
        (layer_ "solver.solve_bounded" (fun () ->
             Solver.solve_bounded ~classification:cls ~budget d nfa));
      record "bnb.nodes" (float_of_int (counter "bnb.nodes" - nodes));
      record "simplex.pivots" (float_of_int (counter "simplex.pivots" - pivots)));
  let reply, job_us = layer "runner.job" (fun () -> Runner.run_job_locally job) in
  record "budget.steps" (float_of_int reply.Proto.steps);
  let line = layer_ "proto.reply_encode" (fun () -> Proto.reply_to_json reply) in
  record "proto.reply_bytes" (float_of_int (String.length line));
  let decoded =
    get_ok "reply decode" (layer_ "proto.reply_decode" (fun () -> Proto.reply_of_json line))
  in
  ignore (layer_ "checker.check_reply" (fun () -> Cert.Checker.check_reply decoded));
  let digest = Runner.Journal.canonical_digest job in
  let entry = Runner.Journal.Done { id = job.Proto.id; digest; reply } in
  layer_ "journal.append" (fun () -> Runner.Journal.append sinks.journal entry);
  Runner.Cache.store sinks.cache ~digest reply;
  (match layer "cache.find" (fun () -> Runner.Cache.find sinks.cache ~digest ~id:job.Proto.id) with
  | Runner.Cache.Hit _, us -> record "cache.find_hit_us" us
  | (Runner.Cache.Miss | Runner.Cache.Cert_reject _), _ ->
      failwith "cache: stored reply not served");
  (reply, job_us)

(* Replays [jobs] in order with fresh journal and cache sinks, stopping
   once [budget_s] has passed (after at least one job); returns what
   {!replay} returned for each job and the pass's wall time. *)
let pass ?(budget_s = infinity) ~journal jobs =
  if Sys.file_exists journal then Sys.remove journal;
  let j = get_ok "journal" (Runner.Journal.open_append journal) in
  let sinks = { journal = j; cache = Runner.Cache.create ~entries:256 } in
  let t0 = now () in
  let rec go acc = function
    | job :: rest when acc = [] || now () -. t0 < budget_s ->
        go (Obs.Trace.with_span "perfbench.job" (fun () -> replay sinks job) :: acc) rest
    | _ -> List.rev acc
  in
  let replies = Fun.protect ~finally:(fun () -> Runner.Journal.close j) (fun () -> go [] jobs) in
  let wall = now () -. t0 in
  record "journal.bytes_per_job"
    (float_of_int (Unix.stat journal).Unix.st_size /. float_of_int (List.length replies));
  (replies, wall)

(* ---- scaling sweep ---- *)

(* Least-squares slope of log y against log x. *)
let loglog_slope pts =
  let n = float_of_int (List.length pts) in
  let xs = List.map (fun (x, _) -> log x) pts and ys = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean xs and my = mean ys in
  let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.0)) 0.0 xs in
  sxy /. sxx

(* Median of three timed runs, in microseconds. *)
let time3 f =
  let t () =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    (now () -. t0) *. 1e6
  in
  match List.sort compare [ t (); t (); t () ] with [ _; m; _ ] -> m | _ -> assert false

(* Grid and layered sizes for Thm 3.3 and Prop 7.5, with |D| the fact
   count. Returns (metric, slope, paper exponent) triples. *)
let sweep () =
  let sizes = [ 6; 8; 11; 16; 22 ] in
  let grid =
    List.map
      (fun w ->
        let d = Graphdb.Generate.flow_grid ~width:w ~depth:w ~max_mult:3 ~seed:w () in
        let ro = Automata.Local.ro_enfa (Automata.Lang.of_string "ax*b") in
        let { Local_solver.net; source; sink; fact_edge } = Local_solver.build_network d ~ro in
        let cut, flow = Flow.Network.min_cut_certified net ~source ~sink in
        let size = float_of_int (Graphdb.Db.fact_count d) in
        ( size,
          time3 (fun () -> Local_solver.build_network d ~ro),
          time3 (fun () -> Flow.Network.min_cut_certified net ~source ~sink),
          time3 (fun () -> Certify.cut ~net ~source ~sink ~cut ~flow ~fact_edge ~forced:[]) ))
      sizes
  in
  let bcl =
    let q = Automata.Lang.of_string "ab|bc" in
    List.map
      (fun w ->
        let d =
          Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~max_mult:3 ~seed:w ()
        in
        (float_of_int (Graphdb.Db.fact_count d), time3 (fun () -> Bcl.solve d q)))
      sizes
  in
  [
    ("slope.local_solver.network", loglog_slope (List.map (fun (s, n, _, _) -> (s, n)) grid), 1);
    ("slope.flow.min_cut", loglog_slope (List.map (fun (s, _, m, _) -> (s, m)) grid), 1);
    ("slope.certify.cut", loglog_slope (List.map (fun (s, _, _, c) -> (s, c)) grid), 1);
    ("slope.bcl.solve", loglog_slope bcl, 2);
  ]
