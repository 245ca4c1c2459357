module Db = Graphdb.Db
module ISet = Hypergraph.Iset

let all_minimum_contingency_sets d a =
  if Automata.Nfa.nullable a then (Cert.Value.Infinite, [])
  else begin
    let h = Graphdb.Eval.match_hypergraph d a in
    let value, sets = Hypergraph.all_min_hitting_sets ~weights:(Db.mult d) h in
    (Cert.Value.Finite value, sets)
  end

let count_minimum_contingency_sets d a =
  match all_minimum_contingency_sets d a with
  | Cert.Value.Infinite, _ -> 0
  | Cert.Value.Finite _, sets -> List.length sets

(* Responsibility via the hypergraph of matches: f is counterfactual after
   removing Γ iff Γ ∪ {f} hits every match while Γ alone leaves some match
   m with m ∩ (Γ ∪ {f}) = {f}. So:

     resp(f) = min over matches m ∋ f of the minimum cost of hitting every
               match not containing f, using no vertex of m (the witness
               match must stay alive except for f itself).

   Careful: Γ must also hit the matches that contain f but are not the
   witness m — unless they are already "hit" by... they are killed when f is
   removed, but Γ itself must NOT need to hit them (the query must still
   hold on D ∖ Γ, which it does as long as some match survives Γ — and m
   survives). Γ ∪ {f} must falsify the query: every match must meet Γ ∪ {f};
   matches containing f are fine, all others must meet Γ. *)
let responsibility d a f =
  if Automata.Nfa.nullable a then Cert.Value.Infinite
  else if not (Db.is_live d f) then invalid_arg "Analysis.responsibility: dead fact"
  else begin
    let matches = Graphdb.Eval.all_matches d a in
    let with_f, without_f = List.partition (fun m -> ISet.mem f m) matches in
    let best = ref Cert.Value.Infinite in
    List.iter
      (fun m ->
        (* witness match m: Γ avoids m entirely (f ∉ Γ by construction since
           f ∈ m); Γ hits every match without f *)
        let forbidden = m in
        let feasible = ref true in
        let reduced_edges =
          List.map
            (fun m' ->
              let allowed = ISet.diff m' forbidden in
              if ISet.is_empty allowed then feasible := false;
              ISet.elements allowed)
            without_f
        in
        if !feasible then begin
          let verts = List.sort_uniq compare (List.concat reduced_edges) in
          let h = Hypergraph.make ~vertices:verts ~edges:reduced_edges in
          let cost, _ = Hypergraph.min_hitting_set ~weights:(Db.mult d) h in
          best := Cert.Value.min !best (Cert.Value.Finite cost)
        end)
      with_f;
    !best
  end

let responsibility_score d a f =
  match responsibility d a f with
  | Cert.Value.Infinite -> 0.0
  | Cert.Value.Finite k -> 1.0 /. (1.0 +. float_of_int k)

let most_responsible_facts d a =
  List.map (fun (id, _) -> (id, responsibility_score d a id)) (Db.facts d)
  |> List.sort (fun (i1, s1) (i2, s2) ->
         let c = compare s2 s1 in
         if c <> 0 then c else compare i1 i2)
