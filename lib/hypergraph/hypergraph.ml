module Iset = Iset
module ISet = Iset

type t = { verts : ISet.t; edge_sets : ISet.t list (* sorted, duplicate-free *) }

let bnb_nodes = Obs.Metrics.counter "hypergraph.bnb_nodes"

let normalize_edges edges = List.sort_uniq ISet.compare edges

let make ~vertices ~edges =
  let verts = ISet.of_list vertices in
  let edge_sets =
    List.map
      (fun e ->
        let s = ISet.of_list e in
        ISet.iter
          (fun v ->
            if not (ISet.mem v verts) then
              invalid_arg (Printf.sprintf "Hypergraph.make: edge uses undeclared vertex %d" v))
          s;
        s)
      edges
  in
  { verts; edge_sets = normalize_edges edge_sets }

let unsafe_make ~vertices ~edges =
  { verts = ISet.of_list vertices; edge_sets = List.map ISet.of_list edges }

let validate t =
  let module C = Invariant.Collector in
  let c = C.create "Hypergraph" in
  List.iteri
    (fun i e ->
      ISet.iter
        (fun v ->
          C.check c (ISet.mem v t.verts) ~invariant:"vertex-containment"
            "edge %d uses undeclared vertex %d" i v)
        e)
    t.edge_sets;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        if ISet.compare a b >= 0 then false else sorted rest
    | _ -> true
  in
  C.check c (sorted t.edge_sets) ~invariant:"edge-order"
    "edge list not strictly sorted (normalization broken)";
  C.result c

let vertices t = ISet.elements t.verts
let edges t = List.map ISet.elements t.edge_sets
let edge_count t = List.length t.edge_sets
let vertex_count t = ISet.cardinal t.verts

let pp ppf t =
  Format.fprintf ppf "@[<v>hypergraph: %d vertices, %d edges@," (vertex_count t) (edge_count t);
  List.iter
    (fun e ->
      Format.fprintf ppf "  {%s}@,"
        (String.concat "," (List.map string_of_int (ISet.elements e))))
    t.edge_sets;
  Format.fprintf ppf "@]"

(* Keep only inclusion-minimal edges (edge-domination rule applied fully),
   both parts in sorted order. A proper subset e' of e has its least
   vertex in e, so the candidates for e are found through an index of
   the edges by least vertex; the empty edge, if any, dominates all the
   others. *)
let minimal_edges_trace edge_sets =
  let edges = Array.of_list (normalize_edges edge_sets) in
  let card = Array.map ISet.cardinal edges in
  let has_empty = Array.length edges > 0 && card.(0) = 0 in
  let by_min = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      if card.(i) > 0 then begin
        let v = ISet.min_elt e in
        Hashtbl.replace by_min v (i :: Option.value ~default:[] (Hashtbl.find_opt by_min v))
      end)
    edges;
  let dominated i =
    let e = edges.(i) in
    card.(i) > 0
    && (has_empty
       || ISet.exists
            (fun v ->
              List.exists
                (fun j -> card.(j) < card.(i) && ISet.subset edges.(j) e)
                (Option.value ~default:[] (Hashtbl.find_opt by_min v)))
            e)
  in
  let kept = ref [] and removed = ref [] in
  for i = Array.length edges - 1 downto 0 do
    if dominated i then removed := edges.(i) :: !removed else kept := edges.(i) :: !kept
  done;
  (!kept, !removed)

let minimal_edges edge_sets = fst (minimal_edges_trace edge_sets)

(* One application of node-domination, if possible. Returns the updated
   hypergraph or None. Prefers removing non-protected vertices; on mutual
   domination (E(v) = E(v')), removes the vertex with the larger id. *)
type step = Removed_edge of int list | Removed_vertex of int * int

let pp_step ppf = function
  | Removed_edge e ->
      Format.fprintf ppf "edge-domination removed {%s}"
        (String.concat "," (List.map string_of_int e))
  | Removed_vertex (v, v') ->
      Format.fprintf ppf "node-domination removed %d (dominated by %d)" v v'

let node_dominate_once prot t =
  let indexed = List.mapi (fun i e -> (i, e)) t.edge_sets in
  let incidence_ids v =
    ISet.of_list (List.filter_map (fun (i, e) -> if ISet.mem v e then Some i else None) indexed)
  in
  let inc = ISet.fold (fun v acc -> (v, incidence_ids v) :: acc) t.verts [] in
  let dominated =
    List.filter_map
      (fun (v, ev) ->
        if ISet.mem v prot then None
        else
          List.find_opt
            (fun (v', ev') ->
              v' <> v
              && ISet.subset ev ev'
              && ((not (ISet.equal ev ev')) || ISet.mem v' prot || v > v'))
            inc
          |> Option.map (fun (v', _) -> (v, v')))
      inc
  in
  match dominated with
  | [] -> None
  | first :: _ as candidates ->
      (* Definition 4.9 asks for the existence of SOME condensation order;
         prefer removals that do not shrink an edge to a singleton (which
         would edge-dominate away its neighbors and can destroy odd paths
         that another order preserves). *)
      let creates_singleton v =
        List.exists (fun e -> ISet.mem v e && ISet.cardinal e = 2) t.edge_sets
      in
      let v, v' =
        Option.value ~default:first
          (List.find_opt (fun (v, _) -> not (creates_singleton v)) candidates)
      in
      Some
        ( {
            verts = ISet.remove v t.verts;
            edge_sets = normalize_edges (List.map (fun e -> ISet.remove v e) t.edge_sets);
          },
          (v, v') )

let condense_trace ?(protected = []) t =
  let prot = ISet.of_list protected in
  let rec fixpoint t acc =
    let kept, removed = minimal_edges_trace t.edge_sets in
    let acc = List.rev_append (List.map (fun e -> Removed_edge (ISet.elements e)) removed) acc in
    let t = { t with edge_sets = kept } in
    match node_dominate_once prot t with
    | None -> (t, List.rev acc)
    | Some (t', (v, v')) -> fixpoint t' (Removed_vertex (v, v') :: acc)
  in
  fixpoint t []

let condense ?protected t = fst (condense_trace ?protected t)

let path_endpoints_length t =
  if not (List.for_all (fun e -> ISet.cardinal e = 2) t.edge_sets) then None
  else if t.edge_sets = [] then None
  else begin
    let adj = Hashtbl.create 16 in
    let add_adj u v =
      Hashtbl.replace adj u (v :: Option.value ~default:[] (Hashtbl.find_opt adj u))
    in
    List.iter
      (fun e ->
        match ISet.elements e with
        | [ u; v ] ->
            add_adj u v;
            add_adj v u
        | vs ->
            Invariant.internal_error
              "Hypergraph.path_endpoints_length: edge of cardinality %d among checked 2-edges"
              (List.length vs))
      t.edge_sets;
    let degree v = List.length (Option.value ~default:[] (Hashtbl.find_opt adj v)) in
    let touched = Hashtbl.fold (fun v _ acc -> v :: acc) adj [] in
    let deg1 = List.filter (fun v -> degree v = 1) touched in
    let all_le2 = List.for_all (fun v -> degree v <= 2) touched in
    match (deg1, all_le2) with
    | [ a; b ], true ->
        (* Walk from a; a simple path visits every edge exactly once. *)
        let rec walk prev cur len =
          if degree cur = 1 && len > 0 then (cur, len)
          else
            let neighbors = Option.value ~default:[] (Hashtbl.find_opt adj cur) in
            let nexts = List.filter (fun v -> v <> prev) neighbors in
            match nexts with [ next ] -> walk cur next (len + 1) | _ -> (cur, -1)
        in
        let endpoint, len = walk (-1) a 0 in
        if endpoint = b && len = List.length t.edge_sets then Some (a, b, len) else None
    | _ -> None
  end

let is_odd_path t ~src ~dst =
  match path_endpoints_length t with
  | Some (a, b, len) ->
      len mod 2 = 1 && ((a = src && b = dst) || (a = dst && b = src))
  | None -> false

exception No_hitting_set

let solve_branch_and_bound ?(fuel = fun () -> ()) weights edge_sets =
  (* Work on inclusion-minimal edges. *)
  let edge_sets = minimal_edges edge_sets in
  if List.exists ISet.is_empty edge_sets then raise No_hitting_set;
  let best = ref max_int and best_set = ref [] in
  let min_weight_in e = ISet.fold (fun v acc -> min acc (weights v)) e max_int in
  (* Greedy disjoint-edge lower bound. *)
  let lower_bound remaining =
    let rec go used acc = function
      | [] -> acc
      | e :: rest ->
          if ISet.is_empty (ISet.inter e used) then
            go (ISet.union e used) (acc + min_weight_in e) rest
          else go used acc rest
    in
    go ISet.empty 0 remaining
  in
  let rec branch cost chosen remaining =
    fuel ();
    Obs.Metrics.incr bnb_nodes;
    match remaining with
    | [] ->
        if cost < !best then begin
          best := cost;
          best_set := chosen
        end
    | _ ->
        if cost + lower_bound remaining < !best then begin
          (* Pick a smallest remaining edge and branch on its vertices. *)
          let pick =
            List.fold_left
              (fun acc e ->
                match acc with
                | None -> Some e
                | Some e' -> if ISet.cardinal e < ISet.cardinal e' then Some e else acc)
              None remaining
          in
          match pick with
          | None -> ()
          | Some e ->
              ISet.iter
                (fun v ->
                  let remaining' = List.filter (fun e' -> not (ISet.mem v e')) remaining in
                  branch (cost + weights v) (v :: chosen) remaining')
                e
        end
  in
  branch 0 [] edge_sets;
  (!best, !best_set)

let min_hitting_set ?(weights = fun _ -> 1) ?fuel t =
  (* Node-domination is only sound for uniform weights, so only apply the
     always-sound edge-domination here; branch and bound handles the rest. *)
  try solve_branch_and_bound ?fuel weights t.edge_sets
  with No_hitting_set -> invalid_arg "Hypergraph.min_hitting_set: empty edge"

let greedy_hitting_set ?(weights = fun _ -> 1) t =
  let edges = Array.of_list (minimal_edges t.edge_sets) in
  if Array.exists ISet.is_empty edges then invalid_arg "Hypergraph.greedy_hitting_set: empty edge";
  (* Vertex [lo + x] is slot [x]. [count.(x)]: live edges through it;
     [incident.(x)]: every edge through it. An edge leaves the live set
     when one of its vertices is picked, and takes its vertices' counts
     down with it. *)
  let lo = Array.fold_left (fun acc e -> min acc (ISet.min_elt e)) max_int edges in
  let hi = Array.fold_left (fun acc e -> max acc (ISet.max_elt e)) min_int edges in
  let nv = if Array.length edges = 0 then 0 else hi - lo + 1 in
  let count = Array.make nv 0 and incident = Array.make nv [] in
  Array.iteri
    (fun i e ->
      ISet.iter
        (fun v ->
          count.(v - lo) <- count.(v - lo) + 1;
          incident.(v - lo) <- i :: incident.(v - lo))
        e)
    edges;
  let live = Array.make (Array.length edges) true in
  let nlive = ref (Array.length edges) in
  let chosen = ref [] and cost = ref 0 in
  while !nlive > 0 do
    (* Pick the vertex maximizing covered-edges per unit weight (compared
       cross-multiplied to stay in integers); ties break toward the smaller
       vertex id for determinism. *)
    let pick = ref (-1) in
    for x = 0 to nv - 1 do
      let k = count.(x) in
      if k > 0 then
        if !pick < 0 then pick := x
        else begin
          let x' = !pick in
          let l = k * weights (lo + x') and r = count.(x') * weights (lo + x) in
          if l > r || (l = r && x < x') then pick := x
        end
    done;
    if !pick < 0 then
      Invariant.internal_error "Hypergraph.greedy_hitting_set: no vertex in live edges";
    let v = lo + !pick in
    chosen := v :: !chosen;
    cost := !cost + weights v;
    List.iter
      (fun i ->
        if live.(i) then begin
          live.(i) <- false;
          decr nlive;
          ISet.iter (fun u -> count.(u - lo) <- count.(u - lo) - 1) edges.(i)
        end)
      incident.(!pick)
  done;
  (!cost, List.rev !chosen)

let all_min_hitting_sets ?(weights = fun _ -> 1) t =
  let edge_sets = minimal_edges t.edge_sets in
  if List.exists ISet.is_empty edge_sets then
    invalid_arg "Hypergraph.all_min_hitting_sets: empty edge";
  let best, _ = solve_branch_and_bound weights edge_sets in
  (* Enumerate optimal sets: branch on the smallest uncovered edge, keeping
     only partial solutions that can still reach [best]. A chosen set may
     over-hit; canonicalize and deduplicate at the end. *)
  let results = ref [] in
  let rec branch cost chosen remaining =
    if cost <= best then
      match remaining with
      | [] -> if cost = best then results := chosen :: !results
      | e :: rest ->
          if ISet.exists (fun v -> ISet.mem v chosen) e then branch cost chosen rest
          else
            ISet.iter
              (fun v ->
                let c = cost + weights v in
                if c <= best then branch c (ISet.add v chosen) rest)
              e
  in
  branch 0 ISet.empty edge_sets;
  (best, List.sort_uniq ISet.compare !results)

let min_hitting_set_bruteforce ?(weights = fun _ -> 1) t =
  let vs = Array.of_list (vertices t) in
  let n = Array.length vs in
  if n > 25 then invalid_arg "min_hitting_set_bruteforce: too many vertices";
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = ref ISet.empty and cost = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        chosen := ISet.add vs.(i) !chosen;
        cost := !cost + weights vs.(i)
      end
    done;
    if !cost < !best && List.for_all (fun e -> not (ISet.is_empty (ISet.inter e !chosen))) t.edge_sets
    then best := !cost
  done;
  if !best = max_int then invalid_arg "min_hitting_set_bruteforce: no hitting set" else !best
