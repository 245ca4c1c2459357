module Db = Graphdb.Db
module Net = Flow.Network

let is_chain ws =
  let ws = List.sort_uniq compare ws in
  List.for_all (fun w -> not (Automata.Word.has_repeated_letter w)) ws
  && List.for_all
       (fun w ->
         String.length w < 3
         ||
         let middle = String.sub w 1 (String.length w - 2) in
         List.for_all
           (fun w' ->
             w' = w || String.for_all (fun c -> not (String.contains w' c)) middle)
           ws)
       ws

let endpoint_graph ws =
  let letters =
    List.fold_left (fun acc w -> Automata.Cset.union acc (Automata.Word.letters w))
      Automata.Cset.empty ws
  in
  let edges =
    List.filter_map
      (fun w ->
        if String.length w >= 2 then begin
          let a = w.[0] and b = w.[String.length w - 1] in
          if a <> b then Some (min a b, max a b) else None
        end
        else None)
      ws
  in
  (Automata.Cset.elements letters, List.sort_uniq compare edges)

(* Bipartition of the endpoint letters: [None] when not bipartite, otherwise
   a (letter -> side) assignment covering the endpoint letters. *)
let endpoint_bipartition ws =
  let letters, edges = endpoint_graph ws in
  let arr = Array.of_list letters in
  let index c =
    let rec go i = if arr.(i) = c then i else go (i + 1) in
    go 0
  in
  let g =
    Graphs.Ugraph.make ~n:(Array.length arr)
      ~edges:(List.map (fun (a, b) -> (index a, index b)) edges)
  in
  match Graphs.Ugraph.bipartition g with
  | None -> None
  | Some (color, _) ->
      let endpoint_letters =
        List.concat_map (fun (a, b) -> [ a; b ]) edges |> List.sort_uniq compare
      in
      Some (List.map (fun c -> (c, color.(index c))) endpoint_letters)

let is_bcl ws =
  (* A word with equal endpoints of length ≥ 2 would have a repeated letter,
     so chain languages only have proper endpoint edges. *)
  is_chain ws && endpoint_bipartition ws <> None

(* Lemma F.2: explicit word list of a chain language from an εNFA, without
   determinization. Witness middle-words are maintained per state as in
   Claim F.3; for chain languages the total number of (state, witness)
   pairs stays O(|A| x |Σ|), so exceeding a proportional budget proves the
   input is not a chain language (productive cycles or shared middles). *)
exception Not_chain of string

let words_of_chain_nfa_exn (a0 : Automata.Nfa.t) =
  let a = Automata.Nfa.trim a0 in
  if a.Automata.Nfa.nstates = 0 then []
  else begin
    let n = a.Automata.Nfa.nstates in
    let eps_out = Array.make n [] and eps_in = Array.make n [] in
    let letter_out = Array.make n [] in
    List.iter
      (fun (s, sym, s') ->
        match sym with
        | Automata.Nfa.Eps ->
            eps_out.(s) <- s' :: eps_out.(s);
            eps_in.(s') <- s :: eps_in.(s')
        | Automata.Nfa.Ch c -> letter_out.(s) <- (c, s') :: letter_out.(s))
      a.Automata.Nfa.trans;
    let closure adj init =
      let seen = Array.make n false in
      let rec go s =
        if not seen.(s) then begin
          seen.(s) <- true;
          List.iter go adj.(s)
        end
      in
      List.iter go init;
      seen
    in
    let s_l = closure eps_out a.Automata.Nfa.initial in
    let s_r = closure eps_in a.Automata.Nfa.final in
    let words = ref [] in
    (* ε: chain languages cannot contain it, but report it so the caller can
       handle trivial resilience uniformly *)
    if List.exists (fun s -> s_l.(s)) a.Automata.Nfa.final then words := "" :: !words;
    (* single-letter words: a letter transition from S_l to S_r *)
    for s = 0 to n - 1 do
      if s_l.(s) then
        List.iter
          (fun (c, s') -> if s_r.(s') then words := String.make 1 c :: !words)
          letter_out.(s)
    done;
    (* words of length >= 2: for each first letter, explore the middle with
       witness words; close on a last-letter transition into S_r *)
    let alphabet = Automata.Cset.elements a.Automata.Nfa.alphabet in
    let budget = 8 * (n + 4) * (List.length alphabet + 4) in
    List.iter
      (fun first ->
        let starts =
          List.concat
            (List.init n (fun s ->
                 if s_l.(s) then
                   List.filter_map
                     (fun (c, s') -> if c = first then Some s' else None)
                     letter_out.(s)
                 else []))
        in
        if starts <> [] then begin
          let witness : (int * string, unit) Hashtbl.t = Hashtbl.create 16 in
          let queue = Queue.create () in
          let push s w =
            if not (Hashtbl.mem witness (s, w)) then begin
              if Hashtbl.length witness > budget then
                raise (Not_chain "middle-word witnesses exceed the chain-language budget");
              Hashtbl.add witness (s, w) ();
              Queue.add (s, w) queue
            end
          in
          List.iter (fun s -> push s "") starts;
          while not (Queue.is_empty queue) do
            let s, w = Queue.pop queue in
            List.iter (fun s' -> push s' w) eps_out.(s);
            List.iter
              (fun (c, s') ->
                (* (c, s') may close a word (s' ∈ S_r) and/or continue the
                   middle; dead-end heads need not be explored further *)
                if letter_out.(s') <> [] || eps_out.(s') <> [] then
                  push s' (w ^ String.make 1 c))
              letter_out.(s)
          done;
          Hashtbl.iter
            (fun (s, w) () ->
              List.iter
                (fun (c, s') ->
                  if s_r.(s') then
                    words := (String.make 1 first ^ w ^ String.make 1 c) :: !words)
                letter_out.(s))
            witness
        end)
      alphabet;
    List.sort_uniq compare !words
  end

let words_of_chain_nfa a =
  try Ok (words_of_chain_nfa_exn a) with Not_chain msg -> Error msg

(* Proposition 7.5's MinCut construction. The certificate comes back as a
   thunk so uncertified callers pay nothing for its serialization.

   The network is built from an index of the live facts: by label, and
   by (source node, label). Each structural edge is then one lookup, so
   construction costs O(|D| + edges added). The edges come in a fixed
   order (fact edges by fact id; then per word, per consecutive letter
   pair, per a-fact by id, per b-fact by id; then the source/target
   wiring), which fixes the vertex numbering, the flow, the cut and the
   certificate. *)
let solve_words_gen d ws =
  if List.mem "" ws then
    (Cert.Value.Infinite, [], fun () -> Certify.trivial "epsilon-in-language")
  else begin
    (* Single-letter words force removal of every fact with that letter. *)
    let single_letters =
      List.filter_map (fun w -> if String.length w = 1 then Some w.[0] else None) ws
    in
    let nfacts = Db.fact_count d in
    let is_forced = Array.make nfacts false in
    let forced =
      List.filter_map
        (fun (fid, (f : Db.fact)) ->
          if List.mem f.Db.label single_letters then begin
            is_forced.(fid) <- true;
            Some fid
          end
          else None)
        (Db.facts d)
    in
    (* Weights captured before the restriction shadows [d]: the restricted
       database no longer answers for removed facts. *)
    let forced_w = List.map (fun fid -> (fid, Db.mult d fid)) forced in
    let base_cost = List.fold_left (fun acc fid -> acc + Db.mult d fid) 0 forced in
    let d = Db.restrict d ~removed:(fun id -> is_forced.(id)) in
    let ws = List.filter (fun w -> String.length w >= 2) ws in
    match endpoint_bipartition ws with
    | None -> invalid_arg "Bcl.solve: endpoint graph is not bipartite"
    | Some side_of ->
        let side c = List.assoc_opt c side_of in
        let live = Db.facts d in
        (* Live fact ids by label, and by (source node, label), in id order. *)
        let by_label = Array.make 256 [] in
        let out_by = Hashtbl.create 64 in
        let key v c = (v * 256) + Char.code c in
        List.iter
          (fun (fid, (f : Db.fact)) ->
            let l = Char.code f.Db.label in
            by_label.(l) <- fid :: by_label.(l);
            let k = key f.Db.src f.Db.label in
            Hashtbl.replace out_by k
              (fid :: Option.value ~default:[] (Hashtbl.find_opt out_by k)))
          (List.rev live);
        let with_label c = by_label.(Char.code c) in
        let out_with v c = Option.value ~default:[] (Hashtbl.find_opt out_by (key v c)) in
        let net = Net.create () in
        let source = Net.add_vertex net and sink = Net.add_vertex net in
        (* start/end vertices and the capacity edge of each live fact. *)
        let startv = Array.make nfacts 0 and endv = Array.make nfacts 0 in
        let fact_edge = ref [] in
        List.iter
          (fun (fid, _) ->
            let s = Net.add_vertex net and e = Net.add_vertex net in
            startv.(fid) <- s;
            endv.(fid) <- e;
            let eid = Net.add_edge net ~src:s ~dst:e (Net.Finite (Db.mult d fid)) in
            fact_edge := (eid, fid) :: !fact_edge)
          live;
        (* Structural +∞ edges: consecutive letter pairs of each word,
           oriented according to the word's direction. *)
        let is_forward w = side w.[0] = Some 0 in
        List.iter
          (fun w ->
            let fwd = is_forward w in
            for i = 0 to String.length w - 2 do
              let b = w.[i + 1] in
              List.iter
                (fun fid ->
                  List.iter
                    (fun gid ->
                      let src, dst = if fwd then (fid, gid) else (gid, fid) in
                      ignore (Net.add_edge net ~src:endv.(src) ~dst:startv.(dst) Net.Inf))
                    (out_with (Db.fact d fid).Db.dst b))
                (with_label w.[i])
            done)
          ws;
        (* Source/target wiring by partition side, for endpoint letters only. *)
        List.iter
          (fun (c, s) ->
            List.iter
              (fun fid ->
                if s = 0 then ignore (Net.add_edge net ~src:source ~dst:startv.(fid) Net.Inf)
                else ignore (Net.add_edge net ~src:endv.(fid) ~dst:sink Net.Inf))
              (with_label c))
          side_of;
        let cut, flow = Net.min_cut_certified net ~source ~sink in
        (match cut.Net.value with
        | Net.Inf ->
            Invariant.internal_error
              "Bcl.solve: infinite cut although cutting every fact edge disconnects the network"
        | Net.Finite v ->
            let facts = Local_solver.cut_facts net ~fact_edge:!fact_edge cut in
            let cert () =
              Certify.cut ~net ~source ~sink ~cut ~flow ~fact_edge:!fact_edge
                ~forced:forced_w
            in
            (Cert.Value.Finite (base_cost + v), List.sort_uniq compare (forced @ facts), cert))
  end

let solve_words d ws =
  let value, witness, _ = solve_words_gen d ws in
  (value, witness)

let solve_words_certified d ws =
  let value, witness, cert = solve_words_gen d ws in
  (value, witness, cert ())

let solve d a =
  match Automata.Dfa.words (Automata.Dfa.of_nfa a) with
  | None -> Error "language is infinite, not a chain language"
  | Some ws ->
      if is_bcl ws then Ok (solve_words d ws) else Error "language is not a bipartite chain language"

let solve_certified d a =
  match Automata.Dfa.words (Automata.Dfa.of_nfa a) with
  | None -> Error "language is infinite, not a chain language"
  | Some ws ->
      if is_bcl ws then Ok (solve_words_certified d ws)
      else Error "language is not a bipartite chain language"
