(* Cross-checks between all resilience solvers: the polynomial algorithms of
   the paper (Thm 3.3, Prop 7.5, Prop 7.7) must agree with the exact
   exponential baselines on randomized databases, in set and bag semantics. *)
open Resilience
module Db = Graphdb.Db

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)

let vcheck name expected got =
  Alcotest.check (Alcotest.testable Cert.Value.pp Cert.Value.equal) name expected got

(* ---- Hand-computed examples ---- *)

let test_aa_path () =
  (* a path of 4 a-facts: 0-1-2-3-4; matches: 3 pairs; resilience 2 *)
  let d = Db.make ~nnodes:5 ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3); (3, 'a', 4) ] in
  vcheck "aa path" (Cert.Value.Finite 2) (fst (Exact.branch_and_bound d (lang "aa")))

let test_bnb_memo_by_content () =
  (* RES_set(aa, encode(P5)) = vc(P5) + 4·(5−1)/2 = 2 + 8 = 10 (Prop 4.11).
     The search reaches the same removed set along different branch orders,
     which build different set trees. A memo keyed by content cuts every
     such revisit off (1375 nodes here); a polymorphic Hashtbl compares
     trees, re-expanded the revisits it missed, and needed 2193. *)
  let pre, l = Gadgets.gadget_aa () in
  let d = Gadgets.encode pre (Graphs.Ugraph.path 5) in
  Alcotest.(check int) "facts" 21 (Db.fact_count d);
  let nodes = Obs.Metrics.counter "bnb.nodes" in
  let before = Obs.Metrics.count nodes in
  vcheck "value" (Cert.Value.Finite 10) (fst (Exact.branch_and_bound d l));
  Alcotest.(check int) "nodes" 1375 (Obs.Metrics.count nodes - before)

(* Fact ids among 1..64 whose [Iset.mix]es xor to 0, by elimination over
   GF(2): 64 vectors of 63 bits are dependent. The first id that reduces to
   0 against the earlier ones, with the ids its reduction used, is the only
   such subset among the ids up to it, so no shorter run of it xors to 0. *)
let zero_xor_ids () =
  let module I = Hypergraph.Iset in
  (* (pivot bit, vector, the ids it combines), oldest first: each vector
     is 0 at the pivot bits of those before it. *)
  let basis = ref [] in
  let rec reduce v ids = function
    | [] -> (v, ids)
    | (bit, b, bids) :: rest ->
        if v land bit <> 0 then reduce (v lxor b) (I.union (I.diff ids bids) (I.diff bids ids)) rest
        else reduce v ids rest
  in
  let rec go id =
    let v, ids = reduce (I.mix id) (I.singleton id) !basis in
    if v = 0 then I.elements ids
    else begin
      let bit = v land -v in
      basis := !basis @ [ (bit, v, ids) ];
      go (id + 1)
    end
  in
  go 1

let test_bnb_memo_hash_collision () =
  (* Query [a]: fact [id] leaves node [id] for one shared sink (facts are
     numbered in source order). It reads [a] for each id in {0} ∪ Z (Z from
     [zero_xor_ids]) and [z] for every other id up to max Z. Each walk is
     one a-fact and the search removes them by ascending source, so it
     visits {0} and, last, {0} ∪ Z: different sets with the same
     [Iset.hash]. A memo that trusted the hash would take the leaf for a
     revisit of {0} and never record a contingency set. *)
  let module I = Hypergraph.Iset in
  let z = zero_xor_ids () in
  let top = List.fold_left max 0 z in
  let is_a id = id = 0 || List.mem id z in
  let facts =
    List.init (top + 1) (fun id -> (id, (if is_a id then 'a' else 'z'), top + 1))
  in
  let d = Db.make ~nnodes:(top + 2) ~facts in
  List.iter
    (fun id -> check (Printf.sprintf "fact %d is an a-fact" id) true ((Db.fact d id).Db.label = 'a'))
    (0 :: z);
  let a_facts = I.of_list (0 :: z) in
  check "the two removed sets differ" false (I.equal (I.singleton 0) a_facts);
  Alcotest.(check int) "and share a hash" (I.hash (I.singleton 0)) (I.hash a_facts);
  let hits = Obs.Metrics.counter "bnb.memo_hits" in
  let before = Obs.Metrics.count hits in
  let value, witness = Exact.branch_and_bound d (lang "a") in
  vcheck "value" (Cert.Value.Finite (I.cardinal a_facts)) value;
  check "witness is every a-fact" true (I.equal (I.of_list witness) a_facts);
  Alcotest.(check int) "no memo hits" 0 (Obs.Metrics.count hits - before)

let test_axb_flow () =
  (* introduction example: resilience of ax*b = min cut *)
  let b = Db.Builder.create () in
  Db.Builder.add b "s1" 'a' "u";
  Db.Builder.add b "s2" 'a' "u";
  Db.Builder.add b "u" 'x' "v";
  Db.Builder.add b "v" 'b' "t";
  let d = Db.Builder.build b in
  (* cutting the single x-fact kills both walks *)
  (match Local_solver.solve d (lang "ax*b") with
  | Ok (v, w) ->
      vcheck "mincut value" (Cert.Value.Finite 1) v;
      check "witness size 1" true (List.length w = 1);
      let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
      check "witness works" true (not (Graphdb.Eval.satisfies d' (lang "ax*b")))
  | Error e -> Alcotest.fail e)

let test_infinite_resilience () =
  let d = Db.make ~nnodes:1 ~facts:[] in
  vcheck "eps in L" Cert.Value.Infinite (Solver.resilience d (lang "a*"));
  vcheck "empty language" (Cert.Value.Finite 0) (Solver.resilience d (lang "!"))

let test_trivially_false () =
  let d = Db.make ~nnodes:3 ~facts:[ (0, 'z', 1) ] in
  vcheck "no match" (Cert.Value.Finite 0) (Solver.resilience d (lang "ab"))

let test_bag_multiplicities () =
  (* one heavy fact vs two light ones *)
  let d = Db.make_bag ~nnodes:4 ~facts:[ (0, 'a', 1, 5); (1, 'b', 2, 1); (1, 'b', 3, 1) ] in
  (* killing ab: remove both b-facts (cost 2) beats the a-fact (cost 5) *)
  vcheck "bag" (Cert.Value.Finite 2) (fst (Exact.branch_and_bound d (lang "ab")));
  match Local_solver.solve d (lang "ab") with
  | Ok (v, _) -> vcheck "bag mincut" (Cert.Value.Finite 2) v
  | Error e -> Alcotest.fail e

let test_solver_dispatch () =
  let d = Graphdb.Generate.random ~nnodes:5 ~nfacts:8 ~alphabet:[ 'a'; 'b'; 'x' ] ~seed:3 () in
  let r = Solver.solve d (lang "ax*b") in
  check "local dispatch" true (r.Solver.algorithm = Solver.Alg_local_mincut);
  let r2 = Solver.solve d (lang "ab|bc") in
  check "bcl dispatch" true (r2.Solver.algorithm = Solver.Alg_bcl_mincut);
  let r3 = Solver.solve d (lang "abc|be") in
  check "submodular dispatch" true (r3.Solver.algorithm = Solver.Alg_submodular);
  let r4 = Solver.solve d (lang "aa") in
  check "hard dispatch" true (r4.Solver.algorithm = Solver.Alg_exact_bnb);
  let r5 = Solver.solve d (lang "a*") in
  check "trivial dispatch" true (r5.Solver.algorithm = Solver.Alg_trivial)

let test_st_resilience () =
  (* path 0 -a-> 1 -a-> 2: Boolean RES(aa) = 1, but with endpoints (0,2) we
     must cut one of the two facts: also 1. With endpoints (0,1): no aa-walk
     at all, resilience 0. *)
  let d = Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (1, 'a', 2) ] in
  let l = lang "aa" in
  check "st sat" true (St_resilience.satisfies d l ~src:0 ~dst:2);
  check "st unsat" false (St_resilience.satisfies d l ~src:0 ~dst:1);
  vcheck "st 0->2" (Cert.Value.Finite 1) (St_resilience.resilience d l ~src:0 ~dst:2);
  vcheck "st 0->1" (Cert.Value.Finite 0) (St_resilience.resilience d l ~src:0 ~dst:1);
  (* local language: solved by MinCut on the guarded instance *)
  let d2 = Graphdb.Generate.flow_grid ~width:2 ~depth:2 ~seed:4 () in
  let r = St_resilience.solve d2 (lang "ax*b") ~src:0 ~dst:(Db.nnodes d2 - 1) in
  check "st local mincut" true (r.St_resilience.algorithm = Solver.Alg_local_mincut);
  (* eps with equal endpoints is unremovable *)
  vcheck "eps same endpoint" Cert.Value.Infinite (St_resilience.resilience d (lang "a*") ~src:1 ~dst:1);
  (* eps with distinct endpoints behaves like the plain language *)
  vcheck "eps diff endpoints" (Cert.Value.Finite 1)
    (St_resilience.resilience d (lang "a*") ~src:0 ~dst:2)

(* Brute-force reference for (s,t)-resilience. *)
let st_bruteforce d l ~src ~dst =
  let live = Array.of_list (List.map fst (Db.facts d)) in
  let n = Array.length live in
  let best = ref Cert.Value.Infinite in
  for mask = 0 to (1 lsl n) - 1 do
    let cost = ref 0 and removed = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        cost := !cost + Db.mult d live.(i);
        removed := live.(i) :: !removed
      end
    done;
    if Cert.Value.compare (Cert.Value.Finite !cost) !best < 0 then begin
      let d2 = Db.restrict d ~removed:(fun id -> List.mem id !removed) in
      if not (St_resilience.satisfies d2 l ~src ~dst) then best := Cert.Value.Finite !cost
    end
  done;
  !best

let test_chain_word_extraction () =
  (* Lemma F.2 on chain languages, including εNFAs built by union/concat *)
  List.iter
    (fun s ->
      let a = lang s in
      match (Bcl.words_of_chain_nfa a, Automata.Lang.words a) with
      | Ok ws, Some expected ->
          Alcotest.(check (list string)) ("words of " ^ s) (List.sort compare expected)
            (List.sort compare ws)
      | Ok _, None -> Alcotest.fail (s ^ ": expected finite")
      | Error e, _ -> Alcotest.fail (s ^ ": " ^ e))
    [ "ab|bc"; "axyb|bztc|cd|dea"; "ab|bc|ca"; "a"; "ab"; "a|bc"; "axb|byc"; "~|ab" ];
  (* a genuinely non-chain language with a productive cycle must error *)
  check "a* rejected" true (Result.is_error (Bcl.words_of_chain_nfa (lang "a(xy)*b")));
  (* minimal DFAs merging pre-final states must still work (axb|ayb) *)
  let m = Automata.Dfa.to_nfa (Automata.Dfa.minimize (Automata.Dfa.of_nfa (lang "axb|ayb"))) in
  (match Bcl.words_of_chain_nfa m with
  | Ok ws -> Alcotest.(check (list string)) "merged pre-final" [ "axb"; "ayb" ] (List.sort compare ws)
  | Error e -> Alcotest.fail e)

let test_local_network_structure () =
  (* Theorem 3.3 construction: one finite edge per live fact whose letter has
     a transition, +∞ edges for ε / source / sink wiring. *)
  let d = Db.make_bag ~nnodes:3 ~facts:[ (0, 'a', 1, 2); (1, 'x', 2, 1); (0, 'z', 2, 1) ] in
  let ro = Automata.Local.ro_enfa (lang "ax*b") in
  let nw = Local_solver.build_network d ~ro in
  (* z has no transition in the automaton: only a and x facts get edges *)
  Alcotest.(check int) "fact edges" 2 (List.length nw.Local_solver.fact_edge);
  List.iter
    (fun (eid, fid) ->
      let _, _, c = Flow.Network.edge_info nw.Local_solver.net eid in
      check "capacity = multiplicity" true (c = Flow.Network.Finite (Db.mult d fid)))
    nw.Local_solver.fact_edge;
  (* non-read-once automata are rejected *)
  check "read-once required" true
    (try
       ignore (Local_solver.build_network d ~ro:(lang "aa"));
       false
     with Invalid_argument _ -> true)

let test_submod_recognize () =
  let r ws = Submod_solver.recognize ws in
  (match r [ "abc"; "be" ] with
  | Some s ->
      check "alpha" true (s.Submod_solver.alpha = "abc");
      check "letters" true (s.Submod_solver.a_pre = 'b' && s.Submod_solver.a_new = 'e');
      check "not mirrored" true (not s.Submod_solver.mirrored)
  | None -> Alcotest.fail "abc|be should be recognized");
  (* the mirror shape: cba|eb *)
  (match r [ "cba"; "eb" ] with
  | Some s -> check "mirrored" true s.Submod_solver.mirrored
  | None -> Alcotest.fail "cba|eb should be recognized via mirroring");
  check "wrong second word" true (r [ "abc"; "ce" ] = None);
  (* ce pairs with abcd, not abc *)
  check "abcd|ce ok" true (r [ "abcd"; "ce" ] <> None);
  check "repeated letters rejected" true (r [ "aba"; "be" ] = None);
  check "fresh letter must be fresh" true (r [ "abc"; "ba" ] = None);
  check "three words rejected" true (r [ "abc"; "be"; "xy" ] = None)

let test_classifier_bound_parameter () =
  (* With a tiny bound the four-legged search cannot see the witness of
     b(aa)*d-like languages... but those are caught by star-freeness; use a
     star-free four-legged language with long witnesses instead. *)
  let s = "abcdexfghij|kxl" in
  (* four-legged with long legs; bound 3 is too small to find the witness *)
  let c_small = Classify.classify ~four_legged_bound:3 (lang s) in
  let c_big = Classify.classify ~four_legged_bound:12 (lang s) in
  ignore c_small;
  (* regardless of the small bound, the language must never be classified
     PTIME *)
  check "not ptime (small bound)" true
    (match c_small.Classify.verdict with Classify.PTime _ -> false | _ -> true);
  check "hard with big bound" true
    (match c_big.Classify.verdict with Classify.NPHard _ -> true | _ -> false)

(* ---- Randomized cross-checks ---- *)

let qcheck = QCheck_alcotest.to_alcotest

let arb_db ?(alphabet = [ 'a'; 'b'; 'c'; 'x' ]) ?(max_mult = 1) ~max_facts () =
  QCheck.make
    ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 1000000 in
      let* nnodes = int_range 2 5 in
      let* nfacts = int_range 1 max_facts in
      return (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet ~max_mult ~seed ()))

(* B&B agrees with subset brute force on arbitrary small instances, for a mix
   of tractable and hard languages, set semantics. *)
let prop_bnb_vs_bruteforce =
  let langs = [ "aa"; "ax*b"; "ab|bc"; "abc|be"; "axb|cxd"; "ab|bc|ca"; "b(aa)*d"; "abc" ] in
  QCheck.Test.make ~name:"branch&bound = brute force (set)" ~count:120
    (QCheck.pair (arb_db ~max_facts:9 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (fst (Exact.branch_and_bound d l)) (Exact.bruteforce d l))

let prop_bnb_vs_bruteforce_bag =
  let langs = [ "aa"; "ax*b"; "ab|bc"; "abc|be"; "axb|cxd" ] in
  QCheck.Test.make ~name:"branch&bound = brute force (bag)" ~count:100
    (QCheck.pair (arb_db ~max_mult:4 ~max_facts:8 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (fst (Exact.branch_and_bound d l)) (Exact.bruteforce d l))

let prop_hitting_set_vs_bnb =
  let langs = [ "aa"; "ab|bc"; "abc|be"; "axb|cxd"; "abc"; "ab|bc|ca" ] in
  QCheck.Test.make ~name:"hitting-set solver = branch&bound (finite languages)" ~count:120
    (QCheck.pair (arb_db ~max_mult:3 ~max_facts:9 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (fst (Exact.hitting_set d l)) (fst (Exact.branch_and_bound d l)))

let prop_local_mincut_vs_exact =
  let langs = [ "ax*b"; "ab|ad|cd"; "abc"; "a"; "axb|axc"; "x*y" ] in
  QCheck.Test.make ~name:"Thm 3.3 MinCut = exact (local languages, bag)" ~count:150
    (QCheck.pair (arb_db ~alphabet:[ 'a'; 'b'; 'c'; 'd'; 'x'; 'y' ] ~max_mult:3 ~max_facts:9 ())
       (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Local_solver.solve d l with
      | Ok (v, w) ->
          Cert.Value.equal v (fst (Exact.branch_and_bound d l))
          &&
          (* the witness really is a contingency set of matching cost *)
          let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
          (not (Graphdb.Eval.satisfies d' l))
          && Cert.Value.equal v (Cert.Value.Finite (List.fold_left (fun a id -> a + Db.mult d id) 0 w))
      | Error e -> QCheck.Test.fail_report e)

let prop_chain_extraction_agrees =
  (* On random small finite languages, whenever the Lemma F.2 extraction
     succeeds it must return exactly the language. *)
  QCheck.Test.make ~name:"Lemma F.2 extraction = determinization when it succeeds" ~count:150
    (QCheck.make
       ~print:(String.concat "|")
       QCheck.Gen.(
         list_size (int_range 1 3)
           (map Automata.Word.of_list (list_size (int_range 1 4) (oneofl [ 'a'; 'b'; 'c' ])))))
    (fun ws ->
      let a = Automata.Nfa.of_words ws in
      match Bcl.words_of_chain_nfa a with
      | Ok extracted ->
          Some (List.sort compare extracted)
          = Option.map (List.sort compare) (Automata.Lang.words a)
      | Error _ -> true)

let prop_bcl_vs_exact =
  let langs = [ "ab|bc"; "axyb|bztc|cd|dea"; "ab|bc|a"; "ab"; "abc|ca" ] in
  QCheck.Test.make ~name:"Prop 7.5 BCL MinCut = exact (bag)" ~count:120
    (QCheck.pair
       (arb_db ~alphabet:[ 'a'; 'b'; 'c'; 'd'; 'x'; 'y'; 'z'; 't'; 'e' ] ~max_mult:3 ~max_facts:8 ())
       (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Bcl.solve d l with
      | Ok (v, w) ->
          Cert.Value.equal v (fst (Exact.branch_and_bound d l))
          &&
          let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
          not (Graphdb.Eval.satisfies d' l)
      | Error e -> QCheck.Test.fail_report e)

(* Prop 7.5's network as it was built before the fact index: every
   structural edge found by scanning all b-facts for each a-fact. The
   indexed construction must add the same edges in the same order, so
   the network, flow, cut, certificate and witness are identical. *)
module Bcl_oracle = struct
  module Net = Flow.Network

  let endpoint_bipartition ws =
    let letters, edges = Bcl.endpoint_graph ws in
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

  let solve_words_certified d ws =
    let single_letters =
      List.filter_map (fun w -> if String.length w = 1 then Some w.[0] else None) ws
    in
    let forced =
      List.filter_map
        (fun (fid, (f : Db.fact)) ->
          if List.mem f.Db.label single_letters then Some fid else None)
        (Db.facts d)
    in
    let forced_w = List.map (fun fid -> (fid, Db.mult d fid)) forced in
    let base_cost = List.fold_left (fun acc fid -> acc + Db.mult d fid) 0 forced in
    let d = Db.restrict d ~removed:(fun id -> List.mem id forced) in
    let ws = List.filter (fun w -> String.length w >= 2) ws in
    match endpoint_bipartition ws with
    | None -> invalid_arg "not bipartite"
    | Some side_of ->
        let side c = List.assoc_opt c side_of in
        let net = Net.create () in
        let source = Net.add_vertex net and sink = Net.add_vertex net in
        let fact_ids = List.map fst (Db.facts d) in
        let startv = Hashtbl.create 64 and endv = Hashtbl.create 64 in
        let fact_edge = ref [] in
        List.iter
          (fun fid ->
            let s = Net.add_vertex net and e = Net.add_vertex net in
            Hashtbl.add startv fid s;
            Hashtbl.add endv fid e;
            let eid = Net.add_edge net ~src:s ~dst:e (Net.Finite (Db.mult d fid)) in
            fact_edge := (eid, fid) :: !fact_edge)
          fact_ids;
        let vertex_of tbl fid = Option.value ~default:(-1) (Hashtbl.find_opt tbl fid) in
        let facts_with_label c =
          List.filter (fun (_, (f : Db.fact)) -> f.Db.label = c) (Db.facts d)
        in
        let is_forward w = side w.[0] = Some 0 in
        List.iter
          (fun w ->
            let fwd = is_forward w in
            for i = 0 to String.length w - 2 do
              let a = w.[i] and b = w.[i + 1] in
              List.iter
                (fun (fid, (f : Db.fact)) ->
                  List.iter
                    (fun (gid, (g : Db.fact)) ->
                      if f.Db.dst = g.Db.src then
                        if fwd then
                          ignore
                            (Net.add_edge net ~src:(vertex_of endv fid)
                               ~dst:(vertex_of startv gid) Net.Inf)
                        else
                          ignore
                            (Net.add_edge net ~src:(vertex_of endv gid)
                               ~dst:(vertex_of startv fid) Net.Inf))
                    (facts_with_label b))
                (facts_with_label a)
            done)
          ws;
        List.iter
          (fun (c, s) ->
            List.iter
              (fun (fid, _) ->
                if s = 0 then
                  ignore (Net.add_edge net ~src:source ~dst:(vertex_of startv fid) Net.Inf)
                else ignore (Net.add_edge net ~src:(vertex_of endv fid) ~dst:sink Net.Inf))
              (facts_with_label c))
          side_of;
        let cut, flow = Net.min_cut_certified net ~source ~sink in
        let v = match cut.Net.value with Net.Finite v -> v | Net.Inf -> -1 in
        let facts = List.filter_map (fun eid -> List.assoc_opt eid !fact_edge) cut.Net.edges in
        ( Cert.Value.Finite (base_cost + v),
          List.sort_uniq compare (forced @ facts),
          Certify.cut ~net ~source ~sink ~cut ~flow ~fact_edge:!fact_edge ~forced:forced_w )
end

let prop_bcl_network_vs_oracle =
  (* Reversed words (ab|bc: bc runs against the bipartition), a word of
     length >= 3, and single-letter words (forced facts). *)
  let langs = [ "ab|bc"; "axyb|bztc|cd|dea"; "a|ab|bc"; "abc|dc"; "b|cd|ad" ] in
  let letters = [ 'a'; 'b'; 'c'; 'd'; 'e'; 't'; 'x'; 'y'; 'z' ] in
  let gen_db =
    QCheck.Gen.(
      let* seed = int_bound 1000000 in
      let* max_mult = int_range 1 3 in
      oneof
        [
          (let* nnodes = int_range 2 12 in
           let* nfacts = int_range 1 60 in
           return (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet:letters ~max_mult ~seed ()));
          (let* layers = oneofl [ [ 'a'; 'b'; 'c' ]; [ 'a'; 'b'; 'c'; 'd' ]; [ 'b'; 'c'; 'd' ] ] in
           let* width = int_range 1 7 in
           return (Graphdb.Generate.layered ~layers ~width ~max_mult ~seed ()));
        ])
  in
  QCheck.Test.make ~name:"Prop 7.5 network = the scan-built network (value, witness, certificate)"
    ~count:300
    (QCheck.pair
       (QCheck.make ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d) gen_db)
       (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Automata.Lang.words l with
      | Some ws when Bcl.is_bcl ws ->
          Bcl.solve_certified d l = Ok (Bcl_oracle.solve_words_certified d ws)
      | _ -> QCheck.Test.fail_reportf "%s is not a bipartite chain language" s)

let prop_submodular_vs_exact =
  let langs = [ "abc|be"; "abcd|ce"; "ab|ac" ] in
  (* note: ab|ac is NOT the submodular shape; filter via recognize *)
  QCheck.Test.make ~name:"Prop 7.7 submodular solver = exact (bag)" ~count:100
    (QCheck.pair (arb_db ~alphabet:[ 'a'; 'b'; 'c'; 'd'; 'e' ] ~max_mult:3 ~max_facts:8 ())
       (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Submod_solver.solve d l with
      | Ok v -> Cert.Value.equal v (fst (Exact.branch_and_bound d l))
      | Error _ -> s = "ab|ac")

let prop_submodular_oracle_is_submodular =
  QCheck.Test.make ~name:"Prop 7.7 objective is submodular (Lemma F.5)" ~count:60
    (arb_db ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~max_mult:2 ~max_facts:8 ())
    (fun d ->
      match Submod_solver.recognize [ "abc"; "be" ] with
      | None -> false
      | Some shape ->
          let ground, f = Submod_solver.oracle d shape in
          let n = List.length ground in
          n > 8 || Submodular.Sfm.is_submodular ~n f)

let prop_mirror_invariance =
  let langs = [ "aa"; "ab|bc"; "abc|be"; "axb|cxd"; "abc" ] in
  QCheck.Test.make ~name:"Prop E.1: resilience invariant under mirroring" ~count:100
    (QCheck.pair (arb_db ~max_facts:8 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      let lm = Automata.Lang.of_regex (Automata.Regex.mirror (Automata.Regex.parse s)) in
      Cert.Value.equal
        (fst (Exact.branch_and_bound d l))
        (fst (Exact.branch_and_bound (Db.reverse d) lm)))

let prop_solver_agrees_with_exact =
  let langs = [ "ax*b"; "ab|bc"; "abc|be"; "aa"; "ab|ad|cd"; "axb|cxd" ] in
  QCheck.Test.make ~name:"dispatching solver = exact baseline" ~count:100
    (QCheck.pair (arb_db ~max_mult:2 ~max_facts:8 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (Solver.resilience d l) (fst (Exact.branch_and_bound d l)))

let prop_reduction_preserves_resilience =
  (* Q_L = Q_reduce(L): resilience must agree on the original language. *)
  let langs = [ "a|aa"; "abbc|bb"; "ab|abc"; "a*"; "aa|aaa|b" ] in
  QCheck.Test.make ~name:"resilience of L = resilience of reduce(L)" ~count:80
    (QCheck.pair (arb_db ~max_facts:7 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      let r = Automata.Reduce.nfa l in
      if Automata.Nfa.nullable l then true
      else
        Cert.Value.equal (fst (Exact.branch_and_bound d l)) (fst (Exact.branch_and_bound d r)))

let prop_st_vs_bruteforce =
  let langs = [ "aa"; "ax*b"; "ab|bc"; "abc" ] in
  QCheck.Test.make ~name:"(s,t)-resilience = brute force" ~count:80
    (QCheck.pair (arb_db ~max_mult:2 ~max_facts:7 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      let src = 0 and dst = Db.nnodes d - 1 in
      Cert.Value.equal (St_resilience.resilience d l ~src ~dst) (st_bruteforce d l ~src ~dst))

let prop_witness_is_minimal_contingency =
  let langs = [ "aa"; "ax*b"; "ab|bc" ] in
  QCheck.Test.make ~name:"B&B witness is a contingency set of optimal cost" ~count:100
    (QCheck.pair (arb_db ~max_mult:3 ~max_facts:8 ()) (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      let v, w = Exact.branch_and_bound d l in
      match v with
      | Cert.Value.Infinite -> false
      | Cert.Value.Finite cost ->
          let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
          (not (Graphdb.Eval.satisfies d' l))
          && cost = List.fold_left (fun a id -> a + Db.mult d id) 0 w)

(* Full-pipeline fuzz: random finite languages through classification and
   dispatch; the dispatching solver must agree with the exact baseline no
   matter which algorithm the classifier picked. *)
let arb_lang =
  QCheck.make
    ~print:(String.concat "|")
    QCheck.Gen.(
      list_size (int_range 1 3)
        (map Automata.Word.of_list (list_size (int_range 1 4) (oneofl [ 'a'; 'b'; 'c' ]))))

let prop_pipeline_fuzz =
  QCheck.Test.make ~name:"pipeline fuzz: dispatch = exact on random languages" ~count:150
    (QCheck.pair (arb_db ~alphabet:[ 'a'; 'b'; 'c' ] ~max_mult:2 ~max_facts:7 ()) arb_lang)
    (fun (d, ws) ->
      let l = Automata.Nfa.of_words ws in
      Cert.Value.equal (Solver.resilience d l) (fst (Exact.branch_and_bound d l)))

let prop_thm61_fuzz =
  (* For every random reduced language with a repeated-letter word, the
     Theorem 6.1 pipeline either produces a verified gadget or fails
     gracefully (no exception); certificates are verified by construction. *)
  QCheck.Test.make ~name:"Thm 6.1 pipeline fuzz (no crashes, gadgets verified)" ~count:60
    arb_lang
    (fun ws ->
      let ws = Automata.Reduce.words ws in
      let l = Automata.Nfa.of_words ws in
      if not (List.exists Automata.Word.has_repeated_letter ws) then true
      else
        match Hardness.thm61_gadget l with
        | Ok o -> o.Hardness.verification.Gadgets.ok
        | Error _ -> true)

let () =
  Alcotest.run "solvers"
    [
      ( "examples",
        [
          Alcotest.test_case "aa on a path" `Quick test_aa_path;
          Alcotest.test_case "B&B memo keyed by content" `Quick test_bnb_memo_by_content;
          Alcotest.test_case "B&B memo hash collision" `Quick test_bnb_memo_hash_collision;
          Alcotest.test_case "ax*b flow example" `Quick test_axb_flow;
          Alcotest.test_case "infinite resilience" `Quick test_infinite_resilience;
          Alcotest.test_case "trivially false" `Quick test_trivially_false;
          Alcotest.test_case "bag multiplicities" `Quick test_bag_multiplicities;
          Alcotest.test_case "dispatch" `Quick test_solver_dispatch;
          Alcotest.test_case "(s,t)-resilience" `Quick test_st_resilience;
          Alcotest.test_case "Lemma F.2 word extraction" `Quick test_chain_word_extraction;
          Alcotest.test_case "Thm 3.3 network structure" `Quick test_local_network_structure;
          Alcotest.test_case "Prop 7.7 shape recognizer" `Quick test_submod_recognize;
          Alcotest.test_case "classifier bound parameter" `Quick test_classifier_bound_parameter;
        ] );
      ( "cross-checks",
        List.map qcheck
          [
            prop_bnb_vs_bruteforce;
            prop_bnb_vs_bruteforce_bag;
            prop_hitting_set_vs_bnb;
            prop_local_mincut_vs_exact;
            prop_chain_extraction_agrees;
            prop_bcl_vs_exact;
            prop_bcl_network_vs_oracle;
            prop_submodular_vs_exact;
            prop_submodular_oracle_is_submodular;
            prop_mirror_invariance;
            prop_solver_agrees_with_exact;
            prop_reduction_preserves_resilience;
            prop_witness_is_minimal_contingency;
            prop_st_vs_bruteforce;
            prop_pipeline_fuzz;
            prop_thm61_fuzz;
          ] );
    ]
