(* Independent certificate checking.

   Everything here re-derives validity from the certificate and the reply
   alone: no solver code, no instance parsing, no flow library. The
   checker trusts that the certificate's instance encoding (network,
   covers, gadget transcript) was built faithfully from the job — that is
   the emitter's half of the contract — and re-verifies every optimality
   argument on top of it: flow feasibility and weak duality for cuts,
   coverage and LP duality for bounds, walk replay and odd-path structure
   for hardness transcripts. See DESIGN.md §13 for the trust boundary. *)

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
(* A passing check consumes its arguments without formatting them. *)
let require b fmt =
  if b then Printf.ikfprintf (fun () -> Ok ()) () fmt else Printf.ksprintf (fun m -> Error m) fmt

let rec iter_result f = function
  | [] -> Ok ()
  | x :: tl ->
      let* () = f x in
      iter_result f tl

let distinct xs =
  let sorted = List.sort compare xs in
  let rec dup = function a :: (b :: _ as tl) -> a = b || dup tl | _ -> false in
  not (dup sorted)

(* An association list indexed once: [find_opt] answers as
   [List.assoc_opt] does (first binding wins), in O(1). *)
let index pairs =
  let t = Hashtbl.create (max 16 (List.length pairs)) in
  List.iter (fun (k, v) -> if not (Hashtbl.mem t k) then Hashtbl.add t k v) pairs;
  t

let member_set xs = index (List.map (fun x -> (x, ())) xs)

(* The closed algorithm vocabulary ({!Resilience.Solver.algorithm_name})
   and degradation reasons ({!Resilience.Budget.exhaustion_name}),
   restated here because the checker must not link those libraries. *)
let alg_trivial = "trivial"
let alg_local = "local MinCut (Thm 3.3)"
let alg_bcl = "BCL MinCut (Prop 7.5)"
let alg_submod = "submodular minimization (Prop 7.7)"
let alg_bnb = "exact branch and bound"
let alg_ilp = "hitting-set ILP"
let algorithms = [ alg_trivial; alg_local; alg_bcl; alg_submod; alg_bnb; alg_ilp ]
let reasons = [ "deadline"; "steps"; "memory"; "injected fault" ]

(* ---- Trivial ---- *)

let check_trivial ~value ~witness why =
  match why with
  | "empty-language" | "query-unsatisfied" ->
      let* () =
        require
          (Value.equal value (Value.Finite 0))
          "trivial certificate (%s): claimed resilience is %s, expected 0" why
          (Value.to_string value)
      in
      require (witness = Some []) "trivial certificate (%s): witness must be the empty set" why
  | "epsilon-in-language" ->
      let* () =
        require
          (Value.equal value Value.Infinite)
          "trivial certificate (epsilon-in-language): claimed resilience is %s, expected +inf"
          (Value.to_string value)
      in
      require
        (witness = None || witness = Some [])
        "trivial certificate (epsilon-in-language): no finite witness can exist"
  | other -> fail "unknown trivial-certificate reason %S" other

(* ---- Cut (weak duality) ---- *)

let check_cut ~value ~witness (c : Certificate.cut) =
  let nedges = List.length c.edges in
  let edges = Array.of_list c.edges in
  let* () =
    require
      (List.length c.flow = nedges)
      "cut: flow has %d entries for %d edges" (List.length c.flow) nedges
  in
  let flow = Array.of_list c.flow in
  let* () = require (c.vertices >= 2) "cut: a network needs at least source and sink" in
  let in_range v = v >= 0 && v < c.vertices in
  let* () =
    require
      (in_range c.source && in_range c.sink && c.source <> c.sink)
      "cut: source/sink out of range or equal"
  in
  let maxv = ref (max c.source c.sink) in
  let* () =
    iter_result
      (fun (s, d, cap) ->
        maxv := max !maxv (max s d);
        let* () = require (in_range s && in_range d) "cut: edge endpoint out of range" in
        match cap with
        | Certificate.Fin w -> require (w >= 0) "cut: negative edge capacity"
        | Certificate.Inf -> Ok ())
      c.edges
  in
  let* () =
    require
      (!maxv = c.vertices - 1)
      "cut: vertex count %d is not tight (max referenced vertex %d)" c.vertices !maxv
  in
  (* Fact mapping: which network edges stand for facts, injectively. *)
  let* () = require (distinct (List.map fst c.fact_edges)) "cut: duplicate edge in fact mapping" in
  let* () = require (distinct (List.map snd c.fact_edges)) "cut: duplicate fact in fact mapping" in
  let* () =
    iter_result
      (fun (e, _) -> require (e >= 0 && e < nedges) "cut: fact mapping references edge %d" e)
      c.fact_edges
  in
  (* Weights cover exactly the mapped facts, and each fact edge's capacity
     equals its fact's weight — so cutting the edge really costs the
     fact's multiplicity. *)
  let* () = require (distinct (List.map fst c.weights)) "cut: duplicate fact in weights" in
  let* () =
    require
      (List.sort compare (List.map fst c.weights) = List.sort compare (List.map snd c.fact_edges))
      "cut: weights domain differs from the mapped facts"
  in
  let weights = index c.weights in
  let* () =
    iter_result
      (fun (e, fid) ->
        let _, _, cap = edges.(e) in
        match (cap, Hashtbl.find_opt weights fid) with
        | Certificate.Fin w, Some w' when w = w' -> Ok ()
        | Certificate.Fin w, Some w' ->
            fail "cut: fact %d edge capacity %d differs from its weight %d" fid w w'
        | Certificate.Inf, _ -> fail "cut: fact %d mapped to an infinite-capacity edge" fid
        | Certificate.Fin _, None -> fail "cut: fact %d has no weight entry" fid)
      c.fact_edges
  in
  let* () =
    iter_result
      (fun (fid, w) -> require (w >= 1) "cut: fact %d has non-positive weight %d" fid w)
      (c.weights @ c.forced)
  in
  let* () = require (distinct (List.map fst c.forced)) "cut: duplicate forced fact" in
  let mapped_facts = member_set (List.map snd c.fact_edges) in
  let* () =
    iter_result
      (fun (fid, _) ->
        require
          (not (Hashtbl.mem mapped_facts fid))
          "cut: forced fact %d also appears in the network" fid)
      c.forced
  in
  let base = List.fold_left (fun acc (_, w) -> acc + w) 0 c.forced in
  match value with
  | Value.Infinite ->
      (* No finite cut exists iff some s-t path uses only Inf edges:
         every cut must sever it at infinite cost. Replay that path. *)
      let* () = require (c.cut_edges = []) "cut: infinite value alongside a finite cut" in
      let* () =
        require (c.inf_path <> []) "cut: infinite value without an infinite-capacity path"
      in
      let* () =
        let rec walk at = function
          | [] -> require (at = c.sink) "cut: infinite path ends at vertex %d, not the sink" at
          | e :: tl ->
              let* () =
                require (e >= 0 && e < nedges) "cut: infinite path references edge %d" e
              in
              let s, d, cap = edges.(e) in
              let* () = require (s = at) "cut: infinite path is not connected" in
              let* () =
                require (cap = Certificate.Inf)
                  "cut: infinite path crosses a finite-capacity edge"
              in
              walk d tl
        in
        walk c.source c.inf_path
      in
      require (witness = Some [] || witness = None)
        "cut: an infinite value admits no finite witness"
  | Value.Finite v ->
      let* () = require (c.inf_path = []) "cut: finite value alongside an infinite path" in
      let net_v = v - base in
      let* () =
        require (net_v >= 0) "cut: claimed value %d is below the forced base cost %d" v base
      in
      (* Cut side of weak duality: distinct finite edges summing to the
         claimed value net of the forced base. *)
      let* () = require (distinct c.cut_edges) "cut: duplicate cut edge" in
      let* cutsum =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* () = require (e >= 0 && e < nedges) "cut: cut references edge %d" e in
            match edges.(e) with
            | _, _, Certificate.Fin w -> Ok (acc + w)
            | _, _, Certificate.Inf -> fail "cut: infinite-capacity edge in the cut")
          (Ok 0) c.cut_edges
      in
      let* () =
        require (cutsum = net_v) "cut: cut capacity %d differs from the claimed value %d - base %d"
          cutsum v base
      in
      (* Flow side: a feasible flow of the same value proves the cut
         minimum (weak duality), hence the claimed value optimal. *)
      let* () =
        let rec feas i =
          if i >= nedges then Ok ()
          else
            let* () = require (flow.(i) >= 0) "cut: negative flow on edge %d" i in
            let* () =
              match edges.(i) with
              | _, _, Certificate.Fin w ->
                  require (flow.(i) <= w) "cut: flow exceeds capacity on edge %d" i
              | _, _, Certificate.Inf -> Ok ()
            in
            feas (i + 1)
        in
        feas 0
      in
      let balance = Array.make c.vertices 0 in
      Array.iteri
        (fun i (s, d, _) ->
          balance.(s) <- balance.(s) - flow.(i);
          balance.(d) <- balance.(d) + flow.(i))
        edges;
      let* () =
        let rec conserve vtx =
          if vtx >= c.vertices then Ok ()
          else if vtx = c.source || vtx = c.sink then conserve (vtx + 1)
          else
            let* () =
              require (balance.(vtx) = 0) "cut: flow conservation fails at vertex %d" vtx
            in
            conserve (vtx + 1)
        in
        conserve 0
      in
      let* () =
        require
          (balance.(c.source) = -net_v)
          "cut: flow ships %d units but the claimed value is %d (net of base %d)"
          (-balance.(c.source)) v base
      in
      (* Cut validity: removing the cut edges disconnects source from sink
         in the positive-capacity subgraph. *)
      let in_cut = Array.make (max nedges 1) false in
      List.iter (fun e -> in_cut.(e) <- true) c.cut_edges;
      let succ = Array.make c.vertices [] in
      Array.iteri
        (fun i (s, d, cap) ->
          if (not in_cut.(i)) && cap <> Certificate.Fin 0 then succ.(s) <- d :: succ.(s))
        edges;
      let seen = Array.make c.vertices false in
      let queue = Queue.create () in
      seen.(c.source) <- true;
      Queue.add c.source queue;
      while not (Queue.is_empty queue) do
        let at = Queue.pop queue in
        List.iter
          (fun d ->
            if not seen.(d) then begin
              seen.(d) <- true;
              Queue.add d queue
            end)
          succ.(at)
      done;
      let* () =
        require (not seen.(c.sink)) "cut: removing the cut does not disconnect source from sink"
      in
      (* The witness is determined by the cut: forced facts plus the facts
         of the cut edges. Both edge lists were range- and
         duplicate-checked above, so an edge-indexed array maps them. *)
      let fact_of_edge = Array.make nedges None in
      List.iter (fun (e, fid) -> fact_of_edge.(e) <- Some fid) c.fact_edges;
      let* cut_facts =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match fact_of_edge.(e) with
            | Some fid -> Ok (fid :: acc)
            | None -> fail "cut: cut edge %d is not a fact edge" e)
          (Ok []) c.cut_edges
      in
      let expected = List.sort_uniq compare (List.map fst c.forced @ cut_facts) in
      (match witness with
      | Some w ->
          require
            (List.sort compare w = expected)
            "cut: witness differs from the certified cut's facts"
      | None -> fail "cut: reply carries no witness")

(* ---- Bounds (coverage + LP weak duality) ---- *)

(* [weights] is [index b.fact_weights]. *)
let witness_cost weights w =
  let* () = require (distinct w) "bounds: duplicate fact in witness" in
  List.fold_left
    (fun acc fid ->
      let* acc = acc in
      match Hashtbl.find_opt weights fid with
      | Some wt -> Ok (acc + wt)
      | None -> fail "bounds: witness fact %d is not in the instance" fid)
    (Ok 0) w

let check_weights (b : Certificate.bounds) =
  let* () = require (distinct (List.map fst b.fact_weights)) "bounds: duplicate fact id" in
  iter_result
    (fun (fid, wt) -> require (wt >= 1) "bounds: fact %d has non-positive weight %d" fid wt)
    b.fact_weights

let check_covers weights w covers =
  let hit = member_set w in
  iter_result
    (fun cover ->
      let* () = require (cover <> []) "bounds: empty cover" in
      let* () =
        iter_result
          (fun fid ->
            require (Hashtbl.mem weights fid) "bounds: cover references unknown fact %d" fid)
          cover
      in
      require
        (List.exists (Hashtbl.mem hit) cover)
        "bounds: the witness misses a cover — it is not a hitting set")
    covers

(* A feasible dual vector [y >= 0] with [A^T y <= w] proves every hitting
   set costs at least [sum y] (weak LP duality), so
   [ceil(sum y - eps)] is a valid integral lower bound. *)
let dual_bound (b : Certificate.bounds) covers ys =
  let nc = List.length covers in
  let* () =
    require (List.length ys = nc) "bounds: dual has %d multipliers for %d covers"
      (List.length ys) nc
  in
  let* () =
    iter_result (fun y -> require (y >= -1e-9) "bounds: negative dual multiplier") ys
  in
  (* Each fact's load sums, in cover order, the multipliers of the covers
     holding it; a fact listed twice in one cover counts once. *)
  let loads = Hashtbl.create 64 in
  List.iteri
    (fun i (cover, y) ->
      List.iter
        (fun fid ->
          match Hashtbl.find_opt loads fid with
          | Some (_, last) when last = i -> ()
          | prev ->
              let acc = match prev with Some (acc, _) -> acc | None -> 0.0 in
              Hashtbl.replace loads fid (acc +. y, i))
        cover)
    (List.combine covers ys);
  let load fid = match Hashtbl.find_opt loads fid with Some (l, _) -> l | None -> 0.0 in
  let* () =
    iter_result
      (fun (fid, wt) ->
        require
          (load fid <= float_of_int wt +. 1e-6)
          "bounds: dual constraint violated at fact %d" fid)
      b.fact_weights
  in
  Ok (List.fold_left ( +. ) 0.0 ys)

let check_bounds_exact ~value ~witness (b : Certificate.bounds) =
  let* () = check_weights b in
  let weights = index b.fact_weights in
  let* v =
    match value with
    | Value.Finite v -> Ok v
    | Value.Infinite -> Error "bounds: an exact bounds certificate needs a finite value"
  in
  let* w =
    match witness with Some w -> Ok w | None -> Error "bounds: reply carries no witness"
  in
  let* cost = witness_cost weights w in
  let* () =
    require (cost = v) "bounds: witness costs %d but the claimed value is %d" cost v
  in
  let* () = match b.covers with None -> Ok () | Some covers -> check_covers weights w covers in
  match b.dual with
  | None -> Ok ()
  | Some ys -> (
      match b.covers with
      | None -> Error "bounds: dual vector without covers"
      | Some covers ->
          let* bound = dual_bound b covers ys in
          require
            (int_of_float (Float.ceil (bound -. 1e-6)) <= v)
            "bounds: dual lower bound %g exceeds the claimed optimum %d" bound v)

let check_bounds_bounded ~lower ~upper ~witness (b : Certificate.bounds) =
  let* () = check_weights b in
  let weights = index b.fact_weights in
  let* l, u =
    match (lower, upper) with
    | Value.Finite l, Value.Finite u -> Ok (l, u)
    | _ -> Error "bounds: bounded replies need finite lower and upper bounds"
  in
  let* () = require (l >= 0 && l <= u) "bounds: bound order violated (%d > %d)" l u in
  let* w =
    match witness with Some w -> Ok w | None -> Error "bounds: reply carries no upper witness"
  in
  let* cost = witness_cost weights w in
  let* () =
    require (cost = u) "bounds: upper witness costs %d but the claimed upper bound is %d" cost u
  in
  let* () = match b.covers with None -> Ok () | Some covers -> check_covers weights w covers in
  match b.dual with
  | None ->
      (* Without a dual no lower bound is certified beyond the trivial
         "a satisfied query needs at least one removal". *)
      require (l <= 1) "bounds: lower bound %d is not certified (no dual vector)" l
  | Some ys -> (
      match b.covers with
      | None -> Error "bounds: dual vector without covers"
      | Some covers ->
          let* bound = dual_bound b covers ys in
          require
            (l <= max 1 (int_of_float (Float.ceil (bound -. 1e-6))))
            "bounds: claimed lower bound %d exceeds the dual's certified bound %g" l bound)

(* ---- Hardness (gadget transcript replay) ---- *)

let replay_fuel = 100_000

module Iset = Set.Make (Int)

(* Does some walk over exactly the match's fact set spell a word of the
   language? Gadget completions are tiny, so a fueled backtracking search
   is exact and cheap; the fuel only guards against adversarial
   certificates. *)
let match_spells_word ~facts ~words ~fuel m =
  let target = Iset.of_list m in
  let rec go node i w used =
    decr fuel;
    if !fuel <= 0 then false
    else if i = String.length w then Iset.equal used target
    else
      List.exists
        (fun (id, src, label, dst) ->
          src = node && label = String.make 1 w.[i] && go dst (i + 1) w (Iset.add id used))
        facts
  in
  List.exists
    (fun w ->
      String.length w > 0
      && List.exists
           (fun (id, _, label, dst) ->
             label = String.make 1 w.[0] && go dst 1 w (Iset.singleton id))
           facts)
    words

let check_match h ~fuel m =
  let known fid = List.exists (fun (id, _, _, _) -> id = fid) h.Certificate.facts in
  let* () = require (m <> []) "hardness: empty match" in
  let* () = require (distinct m) "hardness: duplicate fact in match" in
  let* () =
    iter_result (fun fid -> require (known fid) "hardness: match references unknown fact %d" fid) m
  in
  let facts = List.filter (fun (id, _, _, _) -> List.mem id m) h.Certificate.facts in
  let ok = match_spells_word ~facts ~words:h.Certificate.words ~fuel m in
  if !fuel <= 0 then Error "hardness: transcript replay budget exceeded"
  else require ok "hardness: a listed match spells no word of the language"

(* The condensed structure must be a single path from [f_in] to [f_out]
   of odd length — the Thm 6.1 argument reduces vertex cover through
   exactly this shape. Re-derived from scratch: degree conditions plus a
   walk consuming every edge once. *)
let check_odd_path (h : Certificate.hardness) =
  let* pairs =
    List.fold_left
      (fun acc edge ->
        let* acc = acc in
        match List.sort_uniq compare edge with
        | [ a; b ] -> Ok ((a, b) :: acc)
        | _ -> Error "hardness: condensed edge is not a 2-element set")
      (Ok []) h.condensed
  in
  let pairs = List.rev pairs in
  let* () = require (distinct pairs) "hardness: duplicate condensed edge" in
  let nedges = List.length pairs in
  let* () =
    require (h.path_length = nedges)
      "hardness: path_length %d differs from the condensed edge count %d" h.path_length nedges
  in
  let* () = require (h.path_length mod 2 = 1) "hardness: condensed path length %d is even"
      h.path_length
  in
  let deg = Hashtbl.create 16 in
  let bump v = Hashtbl.replace deg v (1 + Option.value ~default:0 (Hashtbl.find_opt deg v)) in
  List.iter
    (fun (a, b) ->
      bump a;
      bump b)
    pairs;
  let degree v = Option.value ~default:0 (Hashtbl.find_opt deg v) in
  let* () = require (degree h.f_in = 1) "hardness: f_in has degree %d, expected 1" (degree h.f_in) in
  let* () =
    require (degree h.f_out = 1) "hardness: f_out has degree %d, expected 1" (degree h.f_out)
  in
  let* () =
    Hashtbl.fold
      (fun v d acc ->
        let* () = acc in
        if v = h.f_in || v = h.f_out then Ok ()
        else require (d = 2) "hardness: interior condensed vertex %d has degree %d" v d)
      deg (Ok ())
  in
  (* Walk from f_in consuming unused edges; with the degree profile above
     this either traverses the whole path to f_out or stops early,
     exposing a disconnected component. *)
  let used = Array.make nedges false in
  let rec walk at consumed =
    let step =
      let rec find i = function
        | [] -> None
        | (a, b) :: tl ->
            if (not used.(i)) && (a = at || b = at) then Some (i, if a = at then b else a)
            else find (i + 1) tl
      in
      find 0 pairs
    in
    match step with
    | None ->
        let* () =
          require (at = h.f_out) "hardness: condensed walk ends at %d, not f_out" at
        in
        require (consumed = nedges)
          "hardness: condensed structure is disconnected (%d of %d edges on the f_in path)"
          consumed nedges
    | Some (i, other) ->
        used.(i) <- true;
        walk other (consumed + 1)
  in
  walk h.f_in 0

let check_hardness (h : Certificate.hardness) =
  let ids = List.map (fun (id, _, _, _) -> id) h.facts in
  let* () = require (distinct ids) "hardness: duplicate fact id" in
  let* () =
    iter_result
      (fun (id, _, label, _) ->
        require (String.length label = 1) "hardness: fact %d's label is not a single letter" id)
      h.facts
  in
  let known fid = List.mem fid ids in
  let* () =
    require (known h.f_in && known h.f_out) "hardness: endpoint fact missing from the transcript"
  in
  let* () = require (h.f_in <> h.f_out) "hardness: the two endpoints coincide" in
  let* () = require (h.words <> []) "hardness: empty word list" in
  let* () = iter_result (fun w -> require (w <> "") "hardness: empty word in the language") h.words in
  let* () = require (h.matches <> []) "hardness: transcript lists no matches" in
  let fuel = ref replay_fuel in
  let* () = iter_result (check_match h ~fuel) h.matches in
  let* () = require (h.condensed <> []) "hardness: empty condensed structure" in
  let sorted_matches = List.map (List.sort_uniq compare) h.matches in
  let* () =
    iter_result
      (fun edge ->
        let se = List.sort_uniq compare edge in
        let* () =
          iter_result
            (fun fid -> require (known fid) "hardness: condensed edge references unknown fact %d" fid)
            se
        in
        require
          (List.exists (fun m -> List.for_all (fun fid -> List.mem fid m) se) sorted_matches)
          "hardness: a condensed edge is contained in no match (truncated transcript?)")
      h.condensed
  in
  check_odd_path h

(* ---- dispatch ---- *)

let check_reply (r : Proto.reply) =
  match r.verdict with
  | Proto.V_failed _ -> (
      match r.cert with
      | None -> Ok ()
      | Some _ -> Error "error replies must not carry a certificate")
  | Proto.V_exact { value; algorithm; witness } -> (
      let* () = require (List.mem algorithm algorithms) "unknown algorithm %S" algorithm in
      match r.cert with
      | None -> Error "exact reply without a certificate"
      | Some (Certificate.Trivial { why }) ->
          let* () =
            require
              (List.mem algorithm [ alg_trivial; alg_local; alg_bcl ])
              "trivial certificate under algorithm %S" algorithm
          in
          check_trivial ~value ~witness why
      | Some (Certificate.Cut c) ->
          let* () =
            require
              (List.mem algorithm [ alg_local; alg_bcl ])
              "cut certificate under algorithm %S" algorithm
          in
          check_cut ~value ~witness c
      | Some (Certificate.Bounds b) ->
          let* () =
            require
              (List.mem algorithm [ alg_bnb; alg_ilp ])
              "bounds certificate under algorithm %S" algorithm
          in
          check_bounds_exact ~value ~witness b
      | Some (Certificate.Opaque { algorithm = a }) ->
          let* () =
            require (algorithm = alg_submod) "opaque certificate under algorithm %S" algorithm
          in
          let* () =
            require (a = algorithm) "opaque certificate names algorithm %S, the reply says %S" a
              algorithm
          in
          require
            (match value with Value.Finite _ -> true | Value.Infinite -> false)
            "opaque certificate with an infinite value"
      | Some (Certificate.Hardness _) -> Error "hardness certificate on a solve reply")
  | Proto.V_bounded { lower; upper; witness; reason } -> (
      let* () = require (List.mem reason reasons) "unknown degradation reason %S" reason in
      match r.cert with
      | Some (Certificate.Bounds b) -> check_bounds_bounded ~lower ~upper ~witness b
      | Some c -> fail "bounded reply with a %s certificate" (Certificate.kind_name c)
      | None -> Error "bounded reply without a certificate")

let check_classification (c : Proto.classification) =
  match c.Proto.c_verdict with
  | "np-hard" -> (
      match c.Proto.c_cert with
      | Some (Certificate.Hardness h) -> check_hardness h
      | Some other ->
          fail "np-hard classification with a %s certificate" (Certificate.kind_name other)
      | None -> Error "np-hard classification without a hardness certificate")
  | "inconclusive" -> (
      match c.Proto.c_cert with
      | None -> Ok ()
      | Some _ -> Error "inconclusive classification must not carry a certificate")
  | other -> fail "unknown classification verdict %S" other

let check_line line =
  match Json.read line Proto.read_record with
  | Error e -> Error (Printf.sprintf "unparseable JSON: %s" e)
  | Ok (Error e) -> Error e
  | Ok (Ok (Proto.Classification c)) ->
      let* () = check_classification c in
      Ok "classification"
  | Ok (Ok (Proto.Reply r)) ->
      let* () = check_reply r in
      Ok (Proto.verdict_name r.verdict)
