(* Highest-label push-relabel with the gap heuristic. Infinite capacities
   are encoded as (total finite capacity + 1), like in Network.min_cut. *)

let min_cut_certified (t : Network.t) ~source ~sink =
  if source = sink then invalid_arg "Push_relabel.min_cut: source = sink";
  let m = Network.edge_count t in
  let es = Array.init m (Network.edge_info t) in
  let total_finite =
    Array.fold_left
      (fun acc (_, _, c) -> match c with Network.Finite x -> acc + x | Network.Inf -> acc)
      0 es
  in
  let inf_internal = total_finite + 1 in
  let n = Network.vertex_count t in
  (* Arc arrays: arc 2i = edge i, arc 2i+1 = its reverse. *)
  let arc_to = Array.make (2 * m) 0 in
  let cap = Array.make (2 * m) 0 in
  let head = Array.make n [] in
  Array.iteri
    (fun i (s, d, c) ->
      arc_to.(2 * i) <- d;
      cap.(2 * i) <- (match c with Network.Finite x -> x | Network.Inf -> inf_internal);
      arc_to.((2 * i) + 1) <- s;
      head.(s) <- (2 * i) :: head.(s);
      head.(d) <- ((2 * i) + 1) :: head.(d))
    es;
  let head = Array.map Array.of_list head in
  (* Initial forward capacities, to recover per-edge flows at the end. *)
  let orig_fwd = Array.init m (fun i -> cap.(2 * i)) in
  let excess = Array.make n 0 in
  let height = Array.make n 0 in
  let count = Array.make ((2 * n) + 1) 0 in
  (* Initialize: saturate source arcs. *)
  height.(source) <- n;
  count.(0) <- n - 1;
  count.(n) <- 1;
  Array.iter
    (fun a ->
      if cap.(a) > 0 then begin
        let d = arc_to.(a) in
        excess.(d) <- excess.(d) + cap.(a);
        excess.(source) <- excess.(source) - cap.(a);
        cap.(a lxor 1) <- cap.(a lxor 1) + cap.(a);
        cap.(a) <- 0
      end)
    head.(source);
  (* Active vertices by height (highest-label selection). *)
  let buckets = Array.make ((2 * n) + 1) [] in
  let in_bucket = Array.make n false in
  let highest = ref 0 in
  let activate v =
    if v <> source && v <> sink && (not in_bucket.(v)) && excess.(v) > 0 then begin
      in_bucket.(v) <- true;
      buckets.(height.(v)) <- v :: buckets.(height.(v));
      if height.(v) > !highest then highest := height.(v)
    end
  in
  for v = 0 to n - 1 do
    activate v
  done;
  let push v a =
    let u = arc_to.(a) in
    let delta = min excess.(v) cap.(a) in
    cap.(a) <- cap.(a) - delta;
    cap.(a lxor 1) <- cap.(a lxor 1) + delta;
    excess.(v) <- excess.(v) - delta;
    excess.(u) <- excess.(u) + delta;
    activate u
  in
  let relabel v =
    let old = height.(v) in
    let best = ref ((2 * n) + 1) in
    Array.iter (fun a -> if cap.(a) > 0 then best := min !best (height.(arc_to.(a)) + 1)) head.(v);
    if !best <= 2 * n then begin
      count.(old) <- count.(old) - 1;
      height.(v) <- !best;
      count.(!best) <- count.(!best) + 1;
      (* Gap heuristic: no vertex left at [old] strands everything above. *)
      if count.(old) = 0 && old < n then
        for u = 0 to n - 1 do
          if u <> source && height.(u) > old && height.(u) <= n then begin
            count.(height.(u)) <- count.(height.(u)) - 1;
            height.(u) <- n + 1;
            count.(n + 1) <- count.(n + 1) + 1
          end
        done
    end
    else begin
      count.(old) <- count.(old) - 1;
      height.(v) <- (2 * n) + 1 - 1;
      count.(height.(v)) <- count.(height.(v)) + 1
    end
  in
  let discharge v =
    let continue = ref true in
    while !continue && excess.(v) > 0 do
      let pushed = ref false in
      Array.iter
        (fun a ->
          if excess.(v) > 0 && cap.(a) > 0 && height.(v) = height.(arc_to.(a)) + 1 then begin
            push v a;
            pushed := true
          end)
        head.(v);
      if excess.(v) > 0 && not !pushed then begin
        let before = height.(v) in
        relabel v;
        if height.(v) = before then continue := false
      end
    done
  in
  let steps = ref 0 in
  (* A safety net, saturated at [max_int]: 20·n²·(m+1) overflows 63 bits
     near 6·10⁵ vertices, and a wrapped bound would trip at once. *)
  let sat_mul a b = if a > 0 && b > max_int / a then max_int else a * b in
  let max_steps = sat_mul (sat_mul (sat_mul 20 n) n) (m + 1) in
  let rec loop () =
    if !steps > max_steps then
      Invariant.internal_error "Push_relabel.min_cut: step budget %d exceeded" max_steps;
    incr steps;
    (* Find the highest non-empty bucket. *)
    while !highest >= 0 && buckets.(!highest) = [] do
      decr highest
    done;
    if !highest >= 0 then begin
      match buckets.(!highest) with
      | v :: rest ->
          buckets.(!highest) <- rest;
          in_bucket.(v) <- false;
          if excess.(v) > 0 && v <> source && v <> sink then begin
            discharge v;
            activate v;
            if height.(v) > !highest then highest := height.(v)
          end;
          loop ()
      | [] -> loop ()
    end
  in
  loop ();
  let flow = excess.(sink) in
  let edge_flows () = Array.init m (fun i -> orig_fwd.(i) - cap.(2 * i)) in
  if flow > total_finite then ({ Network.value = Network.Inf; edges = [] }, edge_flows ())
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
          if cap.(a) > 0 && not reach.(u) then begin
            reach.(u) <- true;
            Queue.add u q
          end)
        head.(v)
    done;
    let cut_edges = ref [] in
    Array.iteri
      (fun i (s, d, c) ->
        match c with
        | Network.Finite x when x > 0 && reach.(s) && not reach.(d) -> cut_edges := i :: !cut_edges
        | _ -> ())
      es;
    ({ Network.value = Network.Finite flow; edges = List.rev !cut_edges }, edge_flows ())
  end

let min_cut t ~source ~sink = fst (min_cut_certified t ~source ~sink)
let max_flow_value t ~source ~sink = (min_cut t ~source ~sink).Network.value
