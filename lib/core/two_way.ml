module Db = Graphdb.Db
module ISet = Hypergraph.Iset

(* Adjacency for two-way steps: on lowercase c, follow c-facts forward; on
   uppercase C, follow Char.lowercase c facts backward. Each step yields
   (fact id, next node). *)
let steps d =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  List.iter
    (fun (id, (f : Db.fact)) ->
      Hashtbl.replace fwd (f.Db.src, f.Db.label)
        ((id, f.Db.dst) :: Option.value ~default:[] (Hashtbl.find_opt fwd (f.Db.src, f.Db.label)));
      Hashtbl.replace bwd (f.Db.dst, f.Db.label)
        ((id, f.Db.src) :: Option.value ~default:[] (Hashtbl.find_opt bwd (f.Db.dst, f.Db.label))))
    (Db.facts d);
  fun v c ->
    if c >= 'A' && c <= 'Z' then
      Option.value ~default:[] (Hashtbl.find_opt bwd (v, Char.lowercase_ascii c))
    else Option.value ~default:[] (Hashtbl.find_opt fwd (v, c))

let with_letter_maps d (a : Automata.Nfa.t) k =
  let a = Automata.Nfa.remove_eps a in
  if Automata.Nfa.nullable a then `Nullable
  else if a.Automata.Nfa.nstates = 0 then `Empty
  else begin
    let finals = Array.make a.Automata.Nfa.nstates false in
    List.iter (fun f -> finals.(f) <- true) a.Automata.Nfa.final;
    let by_letter = Hashtbl.create 16 in
    List.iter
      (fun (s, c, s') ->
        Hashtbl.replace by_letter (c, s)
          (s' :: Option.value ~default:[] (Hashtbl.find_opt by_letter (c, s))))
      (Automata.Nfa.letter_transitions a);
    let letters =
      List.sort_uniq compare (List.map (fun (_, c, _) -> c) (Automata.Nfa.letter_transitions a))
    in
    `Go (k a finals by_letter letters (steps d))
  end

let satisfies d a =
  match
    with_letter_maps d a (fun a finals by_letter letters step ->
        let seen = Hashtbl.create 64 in
        let queue = Queue.create () in
        let push v s =
          if not (Hashtbl.mem seen (v, s)) then begin
            Hashtbl.add seen (v, s) ();
            Queue.add (v, s) queue
          end
        in
        for v = 0 to Db.nnodes d - 1 do
          List.iter (fun s -> push v s) a.Automata.Nfa.initial
        done;
        let found = ref false in
        while (not !found) && not (Queue.is_empty queue) do
          let v, s = Queue.pop queue in
          if finals.(s) then found := true
          else
            List.iter
              (fun c ->
                match Hashtbl.find_opt by_letter (c, s) with
                | Some succs ->
                    List.iter (fun (_, v') -> List.iter (fun s' -> push v' s') succs) (step v c)
                | None -> ())
              letters
        done;
        !found)
  with
  | `Nullable -> true
  | `Empty -> false
  | `Go b -> b

let shortest_witness d a =
  match
    with_letter_maps d a (fun a finals by_letter letters step ->
        let parent : (int * int, (int * (int * int)) option) Hashtbl.t = Hashtbl.create 64 in
        let queue = Queue.create () in
        let push key p =
          if not (Hashtbl.mem parent key) then begin
            Hashtbl.add parent key p;
            Queue.add key queue
          end
        in
        for v = 0 to Db.nnodes d - 1 do
          List.iter (fun s -> push (v, s) None) a.Automata.Nfa.initial
        done;
        let result = ref None in
        (try
           while not (Queue.is_empty queue) do
             let ((v, s) as key) = Queue.pop queue in
             if finals.(s) then begin
               let rec build key acc =
                 match Hashtbl.find_opt parent key with
                 | None | Some None -> acc
                 | Some (Some (fid, prev)) -> build prev (fid :: acc)
               in
               result := Some (build key []);
               raise Exit
             end;
             List.iter
               (fun c ->
                 match Hashtbl.find_opt by_letter (c, s) with
                 | Some succs ->
                     List.iter
                       (fun (fid, v') ->
                         List.iter (fun s' -> push (v', s') (Some (fid, key))) succs)
                       (step v c)
                 | None -> ())
               letters
           done
         with Exit -> ());
        !result)
  with
  | `Nullable -> Some []
  | `Empty -> None
  | `Go r -> r

let matches_up_to d a ~max_len =
  match
    with_letter_maps d a (fun a finals by_letter letters step ->
        let results = ref [] in
        let seen = ISet.Tbl.create 64 in
        let rec go v s len facts =
          if finals.(s) && not (ISet.Tbl.mem seen facts) then begin
            ISet.Tbl.add seen facts ();
            results := facts :: !results
          end;
          if len < max_len then
            List.iter
              (fun c ->
                match Hashtbl.find_opt by_letter (c, s) with
                | Some succs ->
                    List.iter
                      (fun (fid, v') ->
                        List.iter (fun s' -> go v' s' (len + 1) (ISet.add fid facts)) succs)
                      (step v c)
                | None -> ())
              letters
        in
        for v = 0 to Db.nnodes d - 1 do
          List.iter (fun s -> go v s 0 ISet.empty) a.Automata.Nfa.initial
        done;
        List.sort_uniq ISet.compare !results)
  with
  | `Nullable -> [ ISet.empty ]
  | `Empty -> []
  | `Go r -> r

let resilience d a =
  if Automata.Nfa.nullable a then (Cert.Value.Infinite, [])
  else begin
    let memo = ISet.Tbl.create 256 in
    let best = ref max_int and best_set = ref [] in
    let rec go removed cost chosen =
      if cost < !best && not (ISet.Tbl.mem memo removed) then begin
        ISet.Tbl.add memo removed ();
        let d' = Db.restrict d ~removed:(fun id -> ISet.mem id removed) in
        match shortest_witness d' a with
        | None ->
            best := cost;
            best_set := chosen
        | Some walk ->
            List.iter
              (fun fid ->
                let c = cost + Db.mult d fid in
                if c < !best then go (ISet.add fid removed) c (fid :: chosen))
              (List.sort_uniq compare walk)
      end
    in
    go ISet.empty 0 [];
    (Cert.Value.Finite !best, !best_set)
  end
