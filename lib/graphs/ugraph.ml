type t = { n : int; edges : (int * int) list }

let make ~n ~edges =
  let norm (u, v) =
    if u = v then invalid_arg "Ugraph.make: self-loop";
    if u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Ugraph.make: vertex out of range";
    if u < v then (u, v) else (v, u)
  in
  { n; edges = List.sort_uniq compare (List.map norm edges) }

let n g = g.n
let edges g = g.edges
let edge_count g = List.length g.edges

let neighbors g v =
  List.filter_map
    (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
    g.edges

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d: %s)" g.n (edge_count g)
    (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) g.edges))

let is_vertex_cover g vs =
  let s = List.sort_uniq compare vs in
  let mem v = List.mem v s in
  List.for_all (fun (u, v) -> mem u || mem v) g.edges

module IS = Set.Make (Int)
module IM = Map.Make (Int)

(* Exact minimum vertex cover over an adjacency map, by reductions that
   each keep the optimum, applied to a vertex v of least degree:
   - degree 0: v leaves the graph;
   - degree 1: v's neighbour joins the cover;
   - degree 2 with adjacent neighbours u, w (a triangle): u and w join
     the cover;
   - degree 2 otherwise (folding): v, u and w become one new vertex
     adjacent to N(u) ∪ N(w) \ {v}, and the cover grows by one.
   A subdivided edge is a chain of degree-2 vertices, which folding
   collapses two at a time. When every degree is at least 3, branch on a
   vertex of greatest degree: it joins the cover, or all its neighbours
   do. *)
let vertex_cover_number g =
  let adj =
    List.fold_left
      (fun adj (u, v) ->
        let add a b adj =
          IM.add a (IS.add b (Option.value ~default:IS.empty (IM.find_opt a adj))) adj
        in
        add u v (add v u adj))
      IM.empty g.edges
  in
  let neighbours v adj = Option.value ~default:IS.empty (IM.find_opt v adj) in
  let remove v adj =
    IS.fold (fun u adj -> IM.add u (IS.remove v (neighbours u adj)) adj) (neighbours v adj)
      (IM.remove v adj)
  in
  (* The first vertex whose degree beats every earlier one under [better]. *)
  let pick better adj =
    IM.fold
      (fun v nb acc ->
        match acc with
        | Some (_, d) when not (better (IS.cardinal nb) d) -> acc
        | _ -> Some (v, IS.cardinal nb))
      adj None
  in
  let rec solve fresh adj =
    match pick ( < ) adj with
    | None -> 0
    | Some (v, _) -> (
        match IS.elements (neighbours v adj) with
        | [] -> solve fresh (IM.remove v adj)
        | [ u ] -> 1 + solve fresh (remove u (remove v adj))
        | [ u; w ] when IS.mem w (neighbours u adj) ->
            2 + solve fresh (remove w (remove u (remove v adj)))
        | [ u; w ] ->
            let nb = IS.remove v (IS.union (neighbours u adj) (neighbours w adj)) in
            let adj = remove w (remove u (remove v adj)) in
            let adj =
              IS.fold (fun y adj -> IM.add y (IS.add fresh (neighbours y adj)) adj) nb
                (IM.add fresh nb adj)
            in
            1 + solve (fresh + 1) adj
        | _ -> (
            match pick ( > ) adj with
            | None -> 0
            | Some (v, d) ->
                let nb = neighbours v adj in
                let adj' = remove v adj in
                min (1 + solve fresh adj') (d + solve fresh (IS.fold remove nb adj'))))
  in
  solve g.n adj

let vertex_cover_bruteforce g =
  if g.n > 25 then invalid_arg "vertex_cover_bruteforce: too many vertices";
  let best = ref g.n in
  for mask = 0 to (1 lsl g.n) - 1 do
    let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init g.n Fun.id) in
    let size = List.length vs in
    if size < !best && is_vertex_cover g vs then best := size
  done;
  !best

let subdivide g l =
  if l < 1 then invalid_arg "Ugraph.subdivide: length must be >= 1";
  if l = 1 then g
  else begin
    let next = ref g.n in
    let fresh () =
      let v = !next in
      incr next;
      v
    in
    let new_edges =
      List.concat_map
        (fun (u, v) ->
          let mids = List.init (l - 1) (fun _ -> fresh ()) in
          let chain = (u :: mids) @ [ v ] in
          let rec pair = function a :: (b :: _ as rest) -> (a, b) :: pair rest | _ -> [] in
          pair chain)
        g.edges
    in
    make ~n:!next ~edges:new_edges
  end

let bipartition g =
  let color = Array.make (max g.n 1) (-1) in
  let adj = Array.make (max g.n 1) [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    g.edges;
  let ok = ref true in
  for start = 0 to g.n - 1 do
    if color.(start) = -1 then begin
      color.(start) <- 0;
      let q = Queue.create () in
      Queue.add start q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun u ->
            if color.(u) = -1 then begin
              color.(u) <- 1 - color.(v);
              Queue.add u q
            end
            else if color.(u) = color.(v) then ok := false)
          adj.(v)
      done
    end
  done;
  if !ok then Some (Array.sub color 0 g.n, 2) else None

let is_bipartite g = bipartition g <> None

let path k = make ~n:(max k 1) ~edges:(List.init (max 0 (k - 1)) (fun i -> (i, i + 1)))
let cycle k =
  if k < 3 then invalid_arg "Ugraph.cycle: need at least 3 vertices";
  make ~n:k ~edges:((k - 1, 0) :: List.init (k - 1) (fun i -> (i, i + 1)))

let complete k =
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      edges := (i, j) :: !edges
    done
  done;
  make ~n:k ~edges:!edges

let random ~n ~p ~seed =
  let st = Invariant.Prng.make seed in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Invariant.Prng.float st 1.0 < p then edges := (i, j) :: !edges
    done
  done;
  make ~n ~edges:!edges
