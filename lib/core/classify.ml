type ptime_reason =
  | Trivial_empty
  | Trivial_eps
  | Local
  | Bipartite_chain
  | Submodular of Submod_solver.shape

type hard_reason =
  | Four_legged of char * Automata.Word.t * Automata.Word.t * Automata.Word.t * Automata.Word.t
  | Finite_repeated_letter of Automata.Word.t
  | Non_star_free
  | Neutral_dichotomy of char
  | Known_gadget of string

type verdict = PTime of ptime_reason | NPHard of hard_reason | Unclassified of string

type t = {
  verdict : verdict;
  reduced_words : Automata.Word.t list option;
  reduced : Automata.Nfa.t;
}

(* ---- Renaming / mirror matching for the ad-hoc gadget languages ---- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (( <> ) x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let rename_words mapping ws =
  List.map (String.map (fun c -> List.assoc c mapping)) ws

let same_up_to_renaming ws1 ws2 =
  let s1 = List.sort_uniq compare ws1 and s2 = List.sort_uniq compare ws2 in
  let l1 = Automata.Cset.elements
      (List.fold_left
         (fun acc w -> Automata.Cset.union acc (Automata.Word.letters w))
         Automata.Cset.empty s1)
  in
  let l2 = Automata.Cset.elements
      (List.fold_left
         (fun acc w -> Automata.Cset.union acc (Automata.Word.letters w))
         Automata.Cset.empty s2)
  in
  List.length l1 = List.length l2
  && List.exists
       (fun perm ->
         let mapping = List.combine l1 perm in
         List.sort_uniq compare (rename_words mapping s1) = s2)
       (permutations l2)

let same_up_to_renaming_and_mirror ws1 ws2 =
  same_up_to_renaming ws1 ws2
  || same_up_to_renaming (List.map Automata.Word.mirror ws1) ws2

let known_gadget_languages =
  [
    ("ab|bc|ca (Prop 7.6)", [ "ab"; "bc"; "ca" ]);
    ("abcd|be|ef (Prop 7.8)", [ "abcd"; "be"; "ef" ]);
    ("abcd|bef (Prop 7.8)", [ "abcd"; "bef" ]);
  ]

(* ---- The decision procedure ---- *)

let classify ?four_legged_bound (a : Automata.Nfa.t) =
  let reduced = Automata.Reduce.nfa a in
  let reduced_words = Automata.Dfa.words (Automata.Dfa.of_nfa reduced) in
  let mk verdict = { verdict; reduced_words; reduced } in
  if Automata.Lang.is_empty a then mk (PTime Trivial_empty)
  else if Automata.Nfa.accepts a "" then mk (PTime Trivial_eps)
  else if Automata.Local.is_local_language reduced then mk (PTime Local)
  else begin
    match reduced_words with
    | Some ws -> begin
        (* Finite reduced language, not local. *)
        match List.find_opt Automata.Word.has_repeated_letter ws with
        | Some w -> mk (NPHard (Finite_repeated_letter w))
        | None -> begin
            let bound = List.fold_left (fun acc w -> max acc (String.length w)) 0 ws in
            match Automata.Local.four_legged_witness reduced ~bound with
            | Some (x, al, be, ga, de) -> mk (NPHard (Four_legged (x, al, be, ga, de)))
            | None ->
                if Bcl.is_bcl ws then mk (PTime Bipartite_chain)
                else begin
                  match Submod_solver.recognize ws with
                  | Some shape -> mk (PTime (Submodular shape))
                  | None -> begin
                      match
                        List.find_opt
                          (fun (_, target) -> same_up_to_renaming_and_mirror ws target)
                          known_gadget_languages
                      with
                      | Some (name, _) -> mk (NPHard (Known_gadget name))
                      | None ->
                          mk
                            (Unclassified
                               "finite, reduced, non-local, no repeated letter, not \
                                four-legged, not a BCL, no submodular shape, no known gadget")
                    end
                end
          end
      end
    | None -> begin
        (* Infinite reduced language, not local. *)
        match Automata.Starfree.is_star_free reduced with
        | Some false -> mk (NPHard Non_star_free)
        | _ -> begin
            match Automata.Neutral.neutral_letters a with
            | e :: _ -> mk (NPHard (Neutral_dichotomy e))
            | [] -> begin
                let bound =
                  match four_legged_bound with
                  | Some b -> b
                  | None ->
                      let dfa = Automata.Dfa.minimize (Automata.Dfa.of_nfa reduced) in
                      max 8 ((2 * dfa.Automata.Dfa.nstates) + 2)
                in
                match Automata.Local.four_legged_witness reduced ~bound with
                | Some (x, al, be, ga, de) -> mk (NPHard (Four_legged (x, al, be, ga, de)))
                | None ->
                    mk
                      (Unclassified
                         "infinite, reduced, non-local, star-free, no neutral letter, no \
                          bounded four-legged witness found")
              end
          end
      end
  end

let classify_regex ?four_legged_bound s =
  classify ?four_legged_bound (Automata.Lang.of_string s)

let verdict_summary = function
  | PTime Trivial_empty -> "PTIME (trivial: empty language, resilience 0)"
  | PTime Trivial_eps -> "PTIME (trivial: \xce\xb5 \xe2\x88\x88 L, resilience +\xe2\x88\x9e)"
  | PTime Local -> "PTIME (local, Thm 3.3: MinCut)"
  | PTime Bipartite_chain -> "PTIME (bipartite chain, Prop 7.5: MinCut)"
  | PTime (Submodular s) ->
      Printf.sprintf "PTIME (submodular, Prop 7.7: \xce\xb1=%s%s)" s.Submod_solver.alpha
        (if s.Submod_solver.mirrored then ", mirrored" else "")
  | NPHard (Four_legged (x, al, be, ga, de)) ->
      Printf.sprintf "NP-hard (four-legged, Thm 5.5: x=%c \xce\xb1=%s \xce\xb2=%s \xce\xb3=%s \xce\xb4=%s)" x
        al be ga de
  | NPHard (Finite_repeated_letter w) ->
      Printf.sprintf "NP-hard (finite with repeated letter, Thm 6.1: %s)" w
  | NPHard Non_star_free -> "NP-hard (non-star-free, Lem 5.6)"
  | NPHard (Neutral_dichotomy e) ->
      Printf.sprintf "NP-hard (neutral letter %c, non-local reduction, Prop 5.7)" e
  | NPHard (Known_gadget name) -> Printf.sprintf "NP-hard (gadget: %s)" name
  | Unclassified why -> Printf.sprintf "UNCLASSIFIED (%s)" why
