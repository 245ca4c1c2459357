module Db = Graphdb.Db
module Nfa = Automata.Nfa

let satisfies d a ~src ~dst =
  let a = Nfa.remove_eps a in
  if Nfa.nullable a && src = dst then true
  else if a.Nfa.nstates = 0 then false
  else begin
    let finals = Array.make a.Nfa.nstates false in
    List.iter (fun f -> finals.(f) <- true) a.Nfa.final;
    let by_letter = Hashtbl.create 16 in
    List.iter
      (fun (s, c, s') ->
        Hashtbl.replace by_letter (c, s)
          (s' :: Option.value ~default:[] (Hashtbl.find_opt by_letter (c, s))))
      (Nfa.letter_transitions a);
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    let push v s =
      if not (Hashtbl.mem seen (v, s)) then begin
        Hashtbl.add seen (v, s) ();
        Queue.add (v, s) queue
      end
    in
    List.iter (fun s -> push src s) a.Nfa.initial;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v, s = Queue.pop queue in
      if v = dst && finals.(s) then found := true;
      List.iter
        (fun (_, (f : Db.fact)) ->
          match Hashtbl.find_opt by_letter (f.Db.label, s) with
          | Some succs -> List.iter (fun s' -> push f.Db.dst s') succs
          | None -> ())
        (Db.out_edges d v)
    done;
    !found
  end

type result = {
  value : Cert.Value.t;
  witness : int list option;
  algorithm : Solver.algorithm;
}

(* Two letters outside the database's and language's alphabets. *)
let fresh_letters d a =
  let used = Automata.Cset.union (Db.alphabet d) a.Nfa.alphabet in
  let rec scan c acc =
    if List.length acc = 2 then acc
    else if c > 255 then
      Invariant.internal_error "St_resilience.fresh_letters: all 255 letters in use"
    else if Automata.Cset.mem (Char.chr c) used then scan (c + 1) acc
    else scan (c + 1) (Char.chr c :: acc)
  in
  match scan 1 [] with
  | [ g2; g1 ] -> (g1, g2)
  | _ -> Invariant.internal_error "St_resilience.fresh_letters: scan did not return two letters"

let transform d a ~src ~dst =
  let g1, g2 = fresh_letters d a in
  let heavy = Db.total_mult d + 1 in
  let n = Db.nnodes d in
  let s_star = n and t_star = n + 1 in
  let facts =
    (s_star, g1, src, heavy)
    :: (dst, g2, t_star, heavy)
    :: List.map
         (fun (id, (f : Db.fact)) -> (f.Db.src, f.Db.label, f.Db.dst, Db.mult d id))
         (Db.facts d)
  in
  let d' = Db.make_bag ~nnodes:(n + 2) ~facts in
  (* Map the transformed fact ids back to the original ones. *)
  let back id' =
    let f = Db.fact d' id' in
    if f.Db.label = g1 || f.Db.label = g2 then None
    else
      List.find_opt
        (fun (_, (g : Db.fact)) -> g = f)
        (Db.facts d)
      |> Option.map fst
  in
  let guarded =
    Nfa.concat
      (Nfa.of_words ~alphabet:(Automata.Cset.singleton g1) [ String.make 1 g1 ])
      (Nfa.concat a (Nfa.of_words ~alphabet:(Automata.Cset.singleton g2) [ String.make 1 g2 ]))
  in
  (d', guarded, back)

let solve d a ~src ~dst =
  if src < 0 || src >= Db.nnodes d || dst < 0 || dst >= Db.nnodes d then
    invalid_arg "St_resilience.solve: endpoint out of range";
  Check.cheap "St_resilience.solve: database" (fun () -> Db.validate d);
  Check.cheap "St_resilience.solve: query automaton" (fun () -> Nfa.validate a);
  if Nfa.nullable a && src = dst then
    (* The empty walk from src to itself can never be removed. *)
    { value = Cert.Value.Infinite; witness = None; algorithm = Solver.Alg_trivial }
  else begin
    let d', guarded, back = transform d a ~src ~dst in
    Check.cheap "St_resilience.solve: guarded database" (fun () -> Db.validate d');
    Check.cheap "St_resilience.solve: guarded automaton" (fun () -> Nfa.validate guarded);
    let map_witness w = List.filter_map back w in
    match Local_solver.solve d' guarded with
    | Ok (value, w) ->
        { value; witness = Some (map_witness w); algorithm = Solver.Alg_local_mincut }
    | Error _ ->
        let value, w = Exact.branch_and_bound d' guarded in
        { value; witness = Some (map_witness w); algorithm = Solver.Alg_exact_bnb }
  end

let resilience d a ~src ~dst = (solve d a ~src ~dst).value
