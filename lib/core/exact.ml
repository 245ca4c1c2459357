module ISet = Hypergraph.Iset
module Db = Graphdb.Db
module Eval = Graphdb.Eval

let bruteforce ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  if Automata.Nfa.nullable a then Cert.Value.Infinite
  else begin
    let live = List.map fst (Db.facts d) in
    let n = List.length live in
    if n > 22 then invalid_arg "Exact.bruteforce: too many facts";
    let live = Array.of_list live in
    let best = ref Cert.Value.Infinite in
    for mask = 0 to (1 lsl n) - 1 do
      Budget.tick b;
      let removed = ref ISet.empty and cost = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then begin
          removed := ISet.add live.(i) !removed;
          cost := !cost + Db.mult d live.(i)
        end
      done;
      if Cert.Value.compare (Finite !cost) !best < 0 then begin
        let d' = Db.restrict d ~removed:(fun id -> ISet.mem id !removed) in
        if not (Eval.satisfies d' a) then best := Finite !cost
      end
    done;
    !best
  end

type anytime =
  | Complete of Cert.Value.t * int list
  | Truncated of { incumbent : (int * int list) option; reason : Budget.exhaustion }

let bnb_nodes = Obs.Metrics.counter "bnb.nodes"
let memo_hits = Obs.Metrics.counter "bnb.memo_hits"

(* The dead-fact mask must mark exactly the removed set, and the hash
   carried down the search must be the removed set's. *)
let mask_matches dead removed hash =
  let module C = Invariant.Collector in
  let c = C.create "Exact" in
  let disagree = ref [] in
  Array.iteri (fun fid m -> if m <> ISet.mem fid removed then disagree := fid :: !disagree) dead;
  C.check c (List.is_empty !disagree) ~invariant:"dead-mask"
    "dead-fact mask disagrees with the removed set on facts %s"
    (String.concat "," (List.rev_map string_of_int !disagree));
  C.check c (hash = ISet.hash removed) ~invariant:"memo-hash"
    "carried memo hash %d is not the removed set's %d" hash (ISet.hash removed);
  C.result c

(* Memo keys pair a removed set with its [ISet.hash], which the search
   carries down and updates in O(1) per branch; the contents are compared
   only when the hashes agree. *)
module Memo = Hashtbl.Make (struct
  type t = int * ISet.t

  let hash (h, _) = h
  let equal (h, s) (h', s') = h = h' && ISet.equal s s'
end)

let branch_and_bound_anytime ~budget:b d a =
  if Automata.Nfa.nullable a then Complete (Cert.Value.Infinite, [])
  else begin
    (* One compiled product for the whole search: a node marks its removed
       facts dead in the product's mask (set before descending, cleared
       after) instead of building a restricted database. *)
    let product = Eval.Product.compile d a in
    let dead = Eval.Product.dead product in
    (* Keyed by content: the same removed set reached in another order is a
       different tree, which a polymorphic Hashtbl would miss. *)
    let memo = Memo.create 256 in
    let best = ref max_int and best_set = ref [] in
    (* DFS over removal sets; [hash] is [ISet.hash removed] and [cost] the
       multiplicity already paid. The memo table is bounded by the budget's
       memory cap: once full we stop memoizing (correct, possibly
       re-exploring) rather than growing. *)
    let rec go removed hash cost chosen =
      Budget.tick b;
      Obs.Metrics.incr bnb_nodes;
      if cost >= !best then ()
      else if Memo.mem memo (hash, removed) then Obs.Metrics.incr memo_hits
      else begin
        if Budget.memo_admit b (Memo.length memo) then Memo.add memo (hash, removed) ();
        Check.paranoid "Exact.branch_and_bound: dead mask" (fun () ->
            mask_matches dead removed hash);
        match Eval.Product.shortest_witness product with
        | None ->
            best := cost;
            best_set := chosen
        | Some walk ->
            (* Walk facts are live, so none is in [removed] yet. *)
            let facts = List.sort_uniq Int.compare walk in
            List.iter
              (fun fid ->
                let c = cost + Db.mult d fid in
                if c < !best then begin
                  dead.(fid) <- true;
                  go (ISet.add fid removed) (hash lxor ISet.mix fid) c (fid :: chosen);
                  dead.(fid) <- false
                end)
              facts
      end
    in
    match go ISet.empty 0 0 [] with
    | () ->
        (* The loop always terminates with a finite best: removing all facts
           falsifies the query since ε ∉ L. *)
        Complete (Cert.Value.Finite !best, !best_set)
    | exception Budget.Exhausted reason ->
        let incumbent = if !best < max_int then Some (!best, !best_set) else None in
        Truncated { incumbent; reason }
  end

let branch_and_bound ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  match branch_and_bound_anytime ~budget:b d a with
  | Complete (v, w) -> (v, w)
  | Truncated { reason; _ } -> raise (Budget.Exhausted reason)

let hitting_set ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  if Automata.Nfa.nullable a then (Cert.Value.Infinite, [])
  else begin
    let h = Eval.match_hypergraph ~fuel:(Budget.fuel b) d a in
    let value, set = Hypergraph.min_hitting_set ~weights:(Db.mult d) ~fuel:(Budget.fuel b) h in
    (Cert.Value.Finite value, set)
  end
