module ISet = Hypergraph.Iset

let steps = Obs.Metrics.counter "eval.steps"

(* Evaluation works on the ε-free version of the automaton: states of the
   product are (node, state) pairs, packed as [node * nstates + state]. *)

module Product = struct
  type t = {
    nullable : bool;
    nstates : int;
    nnodes : int;
    initial : int array;  (* in the automaton's list order *)
    finals : bool array;
    nletters : int;
    succ : int array array;
        (* [succ.(s * nletters + l)]: the successors of state [s] on letter
           index [l], in reverse [letter_transitions] order *)
    row : int array;  (* node [v]'s live out-facts are [row.(v) .. row.(v + 1) - 1] *)
    fact_id : int array;  (* ascending within each row *)
    fact_letter : int array;  (* letter index, or -1 when the automaton never reads it *)
    fact_dst : int array;
    dead : bool array;
    (* BFS scratch over packed pairs; a pair is visited iff its stamp is
       the current epoch, so a new search resets nothing. *)
    stamp : int array;
    mutable epoch : int;
    parent_fact : int array;
    parent : int array;
    queue : int array;
  }

  let compile d (a : Automata.Nfa.t) =
    let a = Automata.Nfa.remove_eps a in
    let n = a.Automata.Nfa.nstates in
    let trans = Automata.Nfa.letter_transitions a in
    let code = Array.make 256 (-1) and nletters = ref 0 in
    List.iter
      (fun (_, c, _) ->
        if code.(Char.code c) < 0 then begin
          code.(Char.code c) <- !nletters;
          incr nletters
        end)
      trans;
    let nletters = !nletters in
    let by_letter = Array.make (n * nletters) [] in
    List.iter
      (fun (s, c, s') ->
        let i = (s * nletters) + code.(Char.code c) in
        by_letter.(i) <- s' :: by_letter.(i))
      trans;
    let finals = Array.make n false in
    List.iter (fun f -> finals.(f) <- true) a.Automata.Nfa.final;
    let nnodes = Db.nnodes d in
    let row = Array.make (nnodes + 1) 0 in
    for v = 0 to nnodes - 1 do
      row.(v + 1) <- row.(v) + List.length (Db.out_edges d v)
    done;
    let m = row.(nnodes) in
    let fact_id = Array.make m 0 and fact_letter = Array.make m 0 and fact_dst = Array.make m 0 in
    for v = 0 to nnodes - 1 do
      List.iteri
        (fun i (fid, (f : Db.fact)) ->
          let e = row.(v) + i in
          fact_id.(e) <- fid;
          fact_letter.(e) <- code.(Char.code f.Db.label);
          fact_dst.(e) <- f.Db.dst)
        (Db.out_edges d v)
    done;
    let size = nnodes * n in
    {
      nullable = Automata.Nfa.nullable a;
      nstates = n;
      nnodes;
      initial = Array.of_list a.Automata.Nfa.initial;
      finals;
      nletters;
      succ = Array.map Array.of_list by_letter;
      row;
      fact_id;
      fact_letter;
      fact_dst;
      dead = Array.make (Db.fact_count d) false;
      stamp = Array.make size 0;
      epoch = 0;
      parent_fact = Array.make size (-1);
      parent = Array.make size (-1);
      queue = Array.make size 0;
    }

  let dead p = p.dead

  (* Breadth-first search from every (node, initial state) pair over the
     facts not marked dead. Returns the first final pair dequeued, or -1.
     The order is part of the contract (branch and bound branches on the
     walk found): initial pairs by node, then in [initial] order; a node's
     out-facts by ascending id; successors in [succ] order. One loop over
     the product's arrays, bound to locals: no closure, no allocation. *)
  let search p =
    p.epoch <- p.epoch + 1;
    let epoch = p.epoch and n = p.nstates and nletters = p.nletters in
    let stamp = p.stamp and parent = p.parent and parent_fact = p.parent_fact in
    let queue = p.queue and finals = p.finals and succ = p.succ and dead = p.dead in
    let row = p.row and fact_id = p.fact_id and fact_letter = p.fact_letter in
    let fact_dst = p.fact_dst and initial = p.initial in
    let tail = ref 0 in
    for v = 0 to p.nnodes - 1 do
      for i = 0 to Array.length initial - 1 do
        let k = (v * n) + initial.(i) in
        if stamp.(k) <> epoch then begin
          stamp.(k) <- epoch;
          parent_fact.(k) <- -1;
          parent.(k) <- -1;
          queue.(!tail) <- k;
          incr tail
        end
      done
    done;
    let head = ref 0 and found = ref (-1) in
    while !found < 0 && !head < !tail do
      let k = queue.(!head) in
      incr head;
      let v = k / n in
      let s = k - (v * n) in
      if finals.(s) then found := k
      else
        for e = row.(v) to row.(v + 1) - 1 do
          let l = fact_letter.(e) and fid = fact_id.(e) in
          if l >= 0 && not dead.(fid) then begin
            let succs = succ.((s * nletters) + l) and base = fact_dst.(e) * n in
            for i = 0 to Array.length succs - 1 do
              let k' = base + succs.(i) in
              if stamp.(k') <> epoch then begin
                stamp.(k') <- epoch;
                parent_fact.(k') <- fid;
                parent.(k') <- k;
                queue.(!tail) <- k';
                incr tail
              end
            done
          end
        done
    done;
    !found

  let satisfies p = p.nullable || search p >= 0

  (* The facts on the BFS tree path from an initial pair to [k]. *)
  let rec walk_to p k acc =
    if p.parent_fact.(k) < 0 then acc else walk_to p p.parent.(k) (p.parent_fact.(k) :: acc)

  let shortest_witness p =
    if p.nullable then Some []
    else match search p with -1 -> None | k -> Some (walk_to p k [])

  let matches_up_to ?(fuel = fun () -> ()) p ~max_len =
    if p.nullable then [ ISet.empty ]
    else begin
      let seen = ISet.Tbl.create 64 and results = ref [] in
      let rec go v s len facts =
        fuel ();
        Obs.Metrics.incr steps;
        if p.finals.(s) && not (ISet.Tbl.mem seen facts) then begin
          ISet.Tbl.add seen facts ();
          results := facts :: !results
        end;
        if len < max_len then
          for e = p.row.(v) to p.row.(v + 1) - 1 do
            let l = p.fact_letter.(e) and fid = p.fact_id.(e) in
            if l >= 0 && not p.dead.(fid) then
              Array.iter
                (fun s' -> go p.fact_dst.(e) s' (len + 1) (ISet.add fid facts))
                p.succ.((s * p.nletters) + l)
          done
      in
      for v = 0 to p.nnodes - 1 do
        Array.iter (fun s -> go v s 0 ISet.empty) p.initial
      done;
      List.sort ISet.compare !results
    end
end

let satisfies d a = Product.satisfies (Product.compile d a)
let shortest_witness d a = Product.shortest_witness (Product.compile d a)

let matches_up_to ?fuel d a ~max_len =
  Product.matches_up_to ?fuel (Product.compile d a) ~max_len

let all_matches ?fuel d a =
  if Db.is_acyclic d then matches_up_to ?fuel d a ~max_len:(max 1 (Db.nnodes d))
  else begin
    let dfa = Automata.Dfa.of_nfa a in
    match Automata.Dfa.words dfa with
    | Some ws ->
        let max_len = List.fold_left (fun acc w -> max acc (String.length w)) 0 ws in
        matches_up_to ?fuel d a ~max_len
    | None ->
        invalid_arg "Eval.all_matches: cyclic database with an infinite language"
  end

let match_hypergraph ?fuel d a =
  let vertices = List.map fst (Db.facts d) in
  let edges = List.map ISet.elements (all_matches ?fuel d a) in
  Hypergraph.make ~vertices ~edges
