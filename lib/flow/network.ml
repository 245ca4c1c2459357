type capacity = Finite of int | Inf

let cap_compare a b =
  match (a, b) with
  | Finite x, Finite y -> compare x y
  | Finite _, Inf -> -1
  | Inf, Finite _ -> 1
  | Inf, Inf -> 0

let pp_capacity ppf = function
  | Finite x -> Format.pp_print_int ppf x
  | Inf -> Format.pp_print_string ppf "+\xe2\x88\x9e"

(* Edges are stored in insertion order, in chunks of [chunk] edges
   behind a directory that doubles when full. A chunk is small enough for
   the minor heap, so adding an edge costs about what consing it to a
   list does; one flat array instead reallocates in the major heap each
   time it doubles, which made network construction several times
   slower. Reading an edge is two array loads. The chunks never leave
   this module. *)
let chunk = 16

type t = {
  mutable nvertices : int;
  mutable chunks : (int * int * capacity) array array;
  mutable nedges : int;
}

let create () = { nvertices = 0; chunks = [||]; nedges = 0 }

let add_vertex t =
  let v = t.nvertices in
  t.nvertices <- v + 1;
  v

let vertex_count t = t.nvertices

let unsafe_add_edge t ~src ~dst cap =
  let id = t.nedges in
  let c = id / chunk and e = (src, dst, cap) in
  if id mod chunk = 0 then begin
    if c = Array.length t.chunks then begin
      let grown = Array.make (max 4 (2 * c)) [||] in
      Array.blit t.chunks 0 grown 0 c;
      t.chunks <- grown
    end;
    t.chunks.(c) <- Array.make chunk e
  end
  else t.chunks.(c).(id mod chunk) <- e;
  t.nedges <- id + 1;
  id

let add_edge t ~src ~dst cap =
  if src < 0 || src >= t.nvertices || dst < 0 || dst >= t.nvertices then
    invalid_arg "Network.add_edge: vertex out of range";
  (match cap with
  | Finite c when c < 0 -> invalid_arg "Network.add_edge: negative capacity"
  | _ -> ());
  unsafe_add_edge t ~src ~dst cap

let edge_count t = t.nedges

let edge_info t id =
  if id < 0 || id >= t.nedges then invalid_arg "index out of bounds";
  t.chunks.(id / chunk).(id mod chunk)

let edges_array t = Array.init t.nedges (edge_info t)

let pp ppf t =
  Format.fprintf ppf "@[<v>network: %d vertices, %d edges@," t.nvertices t.nedges;
  Array.iteri
    (fun id (s, d, c) -> Format.fprintf ppf "  e%d: %d -> %d (%a)@," id s d pp_capacity c)
    (edges_array t);
  Format.fprintf ppf "@]"

type cut = { value : capacity; edges : int list }

(* Dinic's algorithm. Infinite capacities are encoded as (total finite
   capacity + 1): any finite cut has value at most the total finite capacity,
   so a computed min cut exceeding it means the true min cut is infinite. *)
let min_cut_certified t ~source ~sink =
  if source = sink then invalid_arg "Network.min_cut: source = sink";
  let es = edges_array t in
  let m = Array.length es in
  let total_finite =
    Array.fold_left (fun acc (_, _, c) -> match c with Finite x -> acc + x | Inf -> acc) 0 es
  in
  let inf_internal = total_finite + 1 in
  let n = t.nvertices in
  (* Arc arrays: arc 2i is edge i forward, arc 2i+1 its residual. *)
  let arc_to = Array.make (2 * m) 0 in
  let arc_cap = Array.make (2 * m) 0 in
  let head = Array.make n [] in
  Array.iteri
    (fun i (s, d, c) ->
      arc_to.(2 * i) <- d;
      arc_cap.(2 * i) <- (match c with Finite x -> x | Inf -> inf_internal);
      arc_to.((2 * i) + 1) <- s;
      arc_cap.((2 * i) + 1) <- 0;
      head.(s) <- (2 * i) :: head.(s);
      head.(d) <- ((2 * i) + 1) :: head.(d))
    es;
  let head = Array.map Array.of_list head in
  (* Initial forward capacities, to recover per-edge flows at the end. *)
  let orig_fwd = Array.init m (fun i -> arc_cap.(2 * i)) in
  let level = Array.make n (-1) in
  let iter = Array.make n 0 in
  let bfs () =
    Array.fill level 0 n (-1);
    let q = Queue.create () in
    level.(source) <- 0;
    Queue.add source q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Array.iter
        (fun a ->
          let u = arc_to.(a) in
          if arc_cap.(a) > 0 && level.(u) < 0 then begin
            level.(u) <- level.(v) + 1;
            Queue.add u q
          end)
        head.(v)
    done;
    level.(sink) >= 0
  in
  let rec dfs v f =
    if v = sink then f
    else begin
      let res = ref 0 in
      while !res = 0 && iter.(v) < Array.length head.(v) do
        let a = head.(v).(iter.(v)) in
        let u = arc_to.(a) in
        if arc_cap.(a) > 0 && level.(u) = level.(v) + 1 then begin
          let d = dfs u (min f arc_cap.(a)) in
          if d > 0 then begin
            arc_cap.(a) <- arc_cap.(a) - d;
            arc_cap.(a lxor 1) <- arc_cap.(a lxor 1) + d;
            res := d
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !res
    end
  in
  let flow = ref 0 in
  while !flow <= total_finite && bfs () do
    Array.fill iter 0 n 0;
    let continue = ref true in
    while !continue do
      let f = dfs source max_int in
      if f = 0 then continue := false else flow := !flow + f
    done
  done;
  let edge_flows () = Array.init m (fun i -> orig_fwd.(i) - arc_cap.(2 * i)) in
  if !flow > total_finite then ({ value = Inf; edges = [] }, edge_flows ())
  else begin
    (* Source side of the residual graph. *)
    let reach = Array.make n false in
    let q = Queue.create () in
    reach.(source) <- true;
    Queue.add source q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      Array.iter
        (fun a ->
          let u = arc_to.(a) in
          if arc_cap.(a) > 0 && not reach.(u) then begin
            reach.(u) <- true;
            Queue.add u q
          end)
        head.(v)
    done;
    let cut_edges = ref [] in
    Array.iteri
      (fun i (s, d, c) ->
        match c with
        | Finite x when x > 0 && reach.(s) && not reach.(d) -> cut_edges := i :: !cut_edges
        | _ -> ())
      es;
    ({ value = Finite !flow; edges = List.rev !cut_edges }, edge_flows ())
  end

let min_cut t ~source ~sink = fst (min_cut_certified t ~source ~sink)
let max_flow_value t ~source ~sink = (min_cut t ~source ~sink).value

(* ---- Invariant validation (see DESIGN.md, "Correctness tooling") ---- *)

let validate t =
  let module C = Invariant.Collector in
  let c = C.create "Flow.Network" in
  C.check c (t.nvertices >= 0) ~invariant:"vertex-count" "nvertices = %d is negative" t.nvertices;
  C.check c
    (t.nedges >= 0 && t.nedges <= chunk * Array.length t.chunks)
    ~invariant:"edge-accounting" "nedges = %d but room for %d edges" t.nedges
    (chunk * Array.length t.chunks);
  Array.iteri
    (fun id (s, d, cap) ->
      C.check c
        (s >= 0 && s < t.nvertices && d >= 0 && d < t.nvertices)
        ~invariant:"endpoint-range" "edge %d: %d -> %d outside [0,%d)" id s d t.nvertices;
      match cap with
      | Finite x ->
          C.check c (x >= 0) ~invariant:"capacity-nonnegative" "edge %d has capacity %d" id x
      | Inf -> ())
    (edges_array t);
  C.result c

let validate_flow t ~source ~sink ~flow ~value =
  let module C = Invariant.Collector in
  let c = C.create "Flow.Network" in
  let es = edges_array t in
  let m = Array.length es in
  C.check c
    (Array.length flow = m)
    ~invariant:"flow-length" "flow vector has length %d, expected %d" (Array.length flow) m;
  if Array.length flow = m then begin
    let net = Array.make (max t.nvertices 1) 0 in
    Array.iteri
      (fun i (s, d, cap) ->
        C.check c (flow.(i) >= 0) ~invariant:"flow-nonnegative" "edge %d carries flow %d" i
          flow.(i);
        (match cap with
        | Finite x ->
            C.check c
              (flow.(i) <= x)
              ~invariant:"capacity-respected" "edge %d carries %d > capacity %d" i flow.(i) x
        | Inf -> ());
        (* Skew-symmetric bookkeeping: each unit leaving s enters d. *)
        net.(s) <- net.(s) - flow.(i);
        net.(d) <- net.(d) + flow.(i))
      es;
    for v = 0 to t.nvertices - 1 do
      if v <> source && v <> sink then
        C.check c
          (net.(v) = 0)
          ~invariant:"conservation" "vertex %d has net flow %d (should be 0)" v net.(v)
    done;
    if source <> sink then begin
      C.check c
        (net.(source) = -value)
        ~invariant:"flow-value" "net flow out of the source is %d, claimed value %d"
        (-net.(source)) value;
      C.check c
        (net.(sink) = value)
        ~invariant:"flow-value" "net flow into the sink is %d, claimed value %d" net.(sink) value
    end
  end;
  C.result c

let validate_cut t ~source ~sink cut =
  let module C = Invariant.Collector in
  let c = C.create "Flow.Network" in
  let es = edges_array t in
  let m = Array.length es in
  match cut.value with
  | Inf ->
      C.check c (cut.edges = []) ~invariant:"cut-edges"
        "an infinite cut must report no cut edges (got %d)" (List.length cut.edges);
      C.result c
  | Finite v ->
      C.check c
        (List.length (List.sort_uniq compare cut.edges) = List.length cut.edges)
        ~invariant:"cut-edges" "duplicate edge ids in the cut";
      let in_cut = Array.make (max m 1) false in
      let total = ref 0 in
      List.iter
        (fun id ->
          if id < 0 || id >= m then
            C.add c ~invariant:"cut-edges" "cut references unknown edge id %d" id
          else begin
            in_cut.(id) <- true;
            match es.(id) with
            | _, _, Finite x -> total := !total + x
            | s, d, Inf ->
                C.add c ~invariant:"cut-finite" "cut contains the +∞ edge %d (%d -> %d)" id s d
          end)
        cut.edges;
      C.check c (!total = v) ~invariant:"cut-value"
        "cut edges have total capacity %d, claimed value %d" !total v;
      (* Removing the cut edges must disconnect source from sink in the
         positive-capacity subgraph. *)
      if C.violations c = [] && t.nvertices > 0 then begin
        let adj = Array.make t.nvertices [] in
        Array.iteri
          (fun id (s, d, cap) ->
            let positive = match cap with Finite x -> x > 0 | Inf -> true in
            if positive && not in_cut.(id) then adj.(s) <- d :: adj.(s))
          es;
        let seen = Array.make t.nvertices false in
        let rec go v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter go adj.(v)
          end
        in
        go source;
        C.check c (not seen.(sink)) ~invariant:"cut-separates"
          "sink %d still reachable from source %d after removing the cut edges" sink source
      end;
      C.result c

let validate_certificate t ~source ~sink cut ~flow =
  match cut.value with
  | Inf -> validate_cut t ~source ~sink cut
  | Finite v -> begin
      (* Weak duality: a feasible flow and a cut of equal value certify that
         both are optimal. *)
      match (validate_cut t ~source ~sink cut, validate_flow t ~source ~sink ~flow ~value:v) with
      | Ok (), Ok () -> Ok ()
      | Error a, Error b -> Error (a @ b)
      | (Error _ as e), Ok () | Ok (), (Error _ as e) -> e
    end
