(* Tests for contingency-set enumeration and responsibility. *)
open Resilience
module Db = Graphdb.Db
module ISet = Hypergraph.Iset

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vcheck name expected got =
  Alcotest.check (Alcotest.testable Cert.Value.pp Cert.Value.equal) name expected got

(* The running example: a path of three a-facts 0-1-2-3, language aa.
   Matches: {0,1}, {1,2}. Minimum contingency sets: {1} (the middle fact)
   — and also {0,2}? cost 2, not minimum. So exactly one minimum set. *)
let path3 () = Db.make ~nnodes:4 ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3) ]

let test_enumeration () =
  let d = path3 () in
  let v, sets = Analysis.all_minimum_contingency_sets d (lang "aa") in
  vcheck "value" (Cert.Value.Finite 1) v;
  check_int "one minimum set" 1 (List.length sets);
  check "it is the middle fact" true (List.hd sets = ISet.singleton 1);
  check_int "count" 1 (Analysis.count_minimum_contingency_sets d (lang "aa"));
  (* two a-facts in parallel for the language a: two minimum sets? no —
     both facts are matches, both must go: unique minimum set of size 2 *)
  let d2 = Db.make ~nnodes:4 ~facts:[ (0, 'a', 1); (2, 'a', 3) ] in
  check_int "both must go" 1 (Analysis.count_minimum_contingency_sets d2 (lang "a"));
  (* ab with two b-options: 0-a->1, 1-b->2, 1-b->3: minimum sets: {a-fact}
     or {both b-facts}? cost 1 vs 2: only {a}: 1 set. With mult a = 2:
     minimum is the pair of b's. *)
  let d3 = Db.make_bag ~nnodes:4 ~facts:[ (0, 'a', 1, 2); (1, 'b', 2, 1); (1, 'b', 3, 1) ] in
  let v3, sets3 = Analysis.all_minimum_contingency_sets d3 (lang "ab") in
  vcheck "weighted value" (Cert.Value.Finite 2) v3;
  check_int "two minimum sets" 2 (List.length sets3);
  (* infinite *)
  let vi, si = Analysis.all_minimum_contingency_sets d2 (lang "a*") in
  check "inf" true (vi = Cert.Value.Infinite && si = [])

let test_enumeration_all_hit () =
  let d = path3 () in
  let _, sets = Analysis.all_minimum_contingency_sets d (lang "aa") in
  List.iter
    (fun s ->
      let d' = Db.restrict d ~removed:(fun id -> ISet.mem id s) in
      check "each set falsifies" true (not (Graphdb.Eval.satisfies d' (lang "aa"))))
    sets

let test_responsibility () =
  let d = path3 () in
  let l = lang "aa" in
  (* fact 1 (middle): removing it alone falsifies: but responsibility needs
     f counterfactual: D\{} satisfies, D\{1} does not: resp = 0 *)
  vcheck "middle fact" (Cert.Value.Finite 0) (Analysis.responsibility d l 1);
  (* fact 0: D\Γ must satisfy Q and removing 0 too must falsify. Γ = {2}:
     D\{2} has matches {0,1} only; removing 0 kills it: resp = 1 *)
  vcheck "end fact" (Cert.Value.Finite 1) (Analysis.responsibility d l 0);
  check "scores ordered" true
    (Analysis.responsibility_score d l 1 > Analysis.responsibility_score d l 0);
  (* a fact not in any match has zero responsibility score; fact ids are
     sorted by (src, label, dst), so the b-fact (0,b,3) gets id 1 *)
  let d2 = Db.make ~nnodes:4 ~facts:[ (0, 'a', 1); (1, 'a', 2); (0, 'b', 3) ] in
  check "irrelevant fact" true (Analysis.responsibility d2 (lang "aa") 1 = Cert.Value.Infinite);
  check "score zero" true (Analysis.responsibility_score d2 (lang "aa") 1 = 0.0)

let test_most_responsible () =
  let d = path3 () in
  match Analysis.most_responsible_facts d (lang "aa") with
  | (top, s) :: _ ->
      check_int "middle is most responsible" 1 top;
      check "score 1" true (s = 1.0)
  | [] -> Alcotest.fail "expected facts"

(* Brute-force responsibility for cross-checking. *)
let brute_responsibility d l f =
  let live = List.filter (fun id -> id <> f) (List.map fst (Db.facts d)) in
  let live = Array.of_list live in
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
      let d_g = Db.restrict d ~removed:(fun id -> List.mem id !removed) in
      let d_gf = Db.restrict d ~removed:(fun id -> id = f || List.mem id !removed) in
      if Graphdb.Eval.satisfies d_g l && not (Graphdb.Eval.satisfies d_gf l) then
        best := Cert.Value.Finite !cost
    end
  done;
  !best

let qcheck = QCheck_alcotest.to_alcotest

let arb_db =
  QCheck.make
    ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 100000 in
      let* nnodes = int_range 2 4 in
      let* nfacts = int_range 1 7 in
      return (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet:[ 'a'; 'b' ] ~max_mult:2 ~seed ()))

let prop_responsibility_vs_brute =
  let langs = [ "aa"; "ab"; "ab|ba"; "aab" ] in
  QCheck.Test.make ~name:"responsibility = brute force" ~count:100
    (QCheck.pair arb_db (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      List.for_all
        (fun (id, _) -> Cert.Value.equal (Analysis.responsibility d l id) (brute_responsibility d l id))
        (Db.facts d))

let prop_enumerated_sets_are_optimal =
  let langs = [ "aa"; "ab"; "ab|ba" ] in
  QCheck.Test.make ~name:"enumerated contingency sets are exactly the optima" ~count:80
    (QCheck.pair arb_db (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Analysis.all_minimum_contingency_sets d l with
      | Cert.Value.Infinite, _ -> false
      | Cert.Value.Finite v, sets ->
          Cert.Value.equal (Cert.Value.Finite v) (fst (Exact.branch_and_bound d l))
          && sets <> []
          && List.for_all
               (fun set ->
                 let cost = ISet.fold (fun id acc -> acc + Db.mult d id) set 0 in
                 let d' = Db.restrict d ~removed:(fun id -> ISet.mem id set) in
                 cost = v && not (Graphdb.Eval.satisfies d' l))
               sets)

let () =
  Alcotest.run "analysis"
    [
      ( "contingency sets",
        [
          Alcotest.test_case "enumeration" `Quick test_enumeration;
          Alcotest.test_case "sets falsify" `Quick test_enumeration_all_hit;
        ] );
      ( "responsibility",
        [
          Alcotest.test_case "examples" `Quick test_responsibility;
          Alcotest.test_case "ranking" `Quick test_most_responsible;
        ] );
      ( "properties",
        List.map qcheck [ prop_responsibility_vs_brute; prop_enumerated_sets_are_optimal ] );
    ]
