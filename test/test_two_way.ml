(* Tests for two-way RPQs (uppercase = backward traversal). *)
open Resilience
module Db = Graphdb.Db

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vcheck name expected got =
  Alcotest.check (Alcotest.testable Cert.Value.pp Cert.Value.equal) name expected got

let test_satisfies () =
  (* 0 -a-> 1 <-b- 2: the 2RPQ aB goes 0 →a 1, then backward along b to 2 *)
  let d = Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (2, 'b', 1) ] in
  check "aB" true (Two_way.satisfies d (lang "aB"));
  check "ab" false (Two_way.satisfies d (lang "ab"));
  check "Ba" false (Two_way.satisfies d (lang "Ba"));
  (* backward b from 1 reaches 2, but no a-fact enters 2 *)
  check "BA" false (Two_way.satisfies d (lang "BA"));
  (* bounce across the b-fact in both directions: a, backward b, forward b *)
  check "aBb" true (Two_way.satisfies d (lang "aBb"));
  (* bounce on a single fact: a then A returns to the start *)
  let d1 = Db.make ~nnodes:2 ~facts:[ (0, 'a', 1) ] in
  check "aA" true (Two_way.satisfies d1 (lang "aA"));
  check "Aa" true (Two_way.satisfies d1 (lang "Aa"));
  check "aa" false (Two_way.satisfies d1 (lang "aa"))

let test_one_way_agrees () =
  (* on lowercase-only queries, two-way = one-way evaluation *)
  let d = Graphdb.Generate.random ~nnodes:5 ~nfacts:10 ~alphabet:[ 'a'; 'b' ] ~seed:3 () in
  List.iter
    (fun s ->
      check ("agree " ^ s) true
        (Two_way.satisfies d (lang s) = Graphdb.Eval.satisfies d (lang s)))
    [ "ab"; "a*b"; "aa"; "ab|ba" ]

let test_witness () =
  let d = Db.make ~nnodes:2 ~facts:[ (0, 'a', 1) ] in
  (match Two_way.shortest_witness d (lang "aA") with
  | Some w ->
      check_int "two steps" 2 (List.length w);
      check_int "one distinct fact" 1 (List.length (List.sort_uniq compare w))
  | None -> Alcotest.fail "expected witness");
  check "eps" true (Two_way.shortest_witness d (lang "~") = Some []);
  check "none" true (Two_way.shortest_witness d (lang "b") = None)

let test_matches () =
  let d = Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (2, 'a', 1) ] in
  (* aA walks: 0→1→0 (fact 0 twice), 0→1→2 (facts 0,1), 2→1→2, 2→1→0 *)
  let ms = Two_way.matches_up_to d (lang "aA") ~max_len:2 in
  check_int "three distinct fact sets" 3 (List.length ms)

let test_resilience () =
  (* aA is satisfied as long as ANY a-fact remains: resilience = #a-facts *)
  let d = Db.make ~nnodes:4 ~facts:[ (0, 'a', 1); (2, 'a', 3) ] in
  vcheck "aA" (Cert.Value.Finite 2) (fst (Two_way.resilience d (lang "aA")));
  (* aB needs a and b facts consecutively sharing the head *)
  let d2 = Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (2, 'b', 1) ] in
  vcheck "aB" (Cert.Value.Finite 1) (fst (Two_way.resilience d2 (lang "aB")));
  vcheck "eps" Cert.Value.Infinite (fst (Two_way.resilience d2 (lang "a*")));
  (* witness is a contingency set *)
  let v, w = Two_way.resilience d (lang "aA") in
  let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
  check "witness works" true (not (Two_way.satisfies d' (lang "aA")));
  vcheck "witness cost" v (Cert.Value.Finite (List.fold_left (fun a id -> a + Db.mult d id) 0 w))

(* brute-force cross-check *)
let brute d l =
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
      let d' = Db.restrict d ~removed:(fun id -> List.mem id !removed) in
      if not (Two_way.satisfies d' l) then best := Cert.Value.Finite !cost
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
      let* nfacts = int_range 1 6 in
      return (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet:[ 'a'; 'b' ] ~max_mult:2 ~seed ()))

let prop_two_way_resilience_vs_brute =
  let langs = [ "aA"; "aB|Ba"; "Ab"; "aBa"; "AA" ] in
  QCheck.Test.make ~name:"two-way resilience = brute force" ~count:80
    (QCheck.pair arb_db (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (fst (Two_way.resilience d l)) (brute d l))

let prop_two_way_generalizes_one_way =
  let langs = [ "aa"; "ab"; "ab|ba" ] in
  QCheck.Test.make ~name:"two-way resilience = one-way on forward-only queries" ~count:80
    (QCheck.pair arb_db (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      Cert.Value.equal (fst (Two_way.resilience d l)) (fst (Exact.branch_and_bound d l)))

let () =
  Alcotest.run "two_way"
    [
      ( "evaluation",
        [
          Alcotest.test_case "satisfies" `Quick test_satisfies;
          Alcotest.test_case "agrees with one-way" `Quick test_one_way_agrees;
          Alcotest.test_case "witness" `Quick test_witness;
          Alcotest.test_case "matches" `Quick test_matches;
        ] );
      ("resilience", [ Alcotest.test_case "examples" `Quick test_resilience ]);
      ( "properties",
        List.map qcheck [ prop_two_way_resilience_vs_brute; prop_two_way_generalizes_one_way ] );
    ]
