(* Small-surface tests: Value arithmetic, Cset, pretty-printers, report
   rendering, CLI-facing helpers. *)
open Resilience

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_value () =
  let open Cert.Value in
  check "add fin" true (equal (add (Finite 2) (Finite 3)) (Finite 5));
  check "add inf" true (equal (add (Finite 2) Infinite) Infinite);
  check "min" true (equal (min (Finite 2) Infinite) (Finite 2));
  check "compare" true (compare (Finite 5) Infinite < 0);
  check "compare eq" true (compare Infinite Infinite = 0);
  check_str "to_string" "7" (to_string (Finite 7))

let test_cset () =
  let open Automata.Cset in
  check "of_string dedups" true (cardinal (of_string "aabbc") = 3);
  check_str "to_string sorted" "abc" (to_string (of_string "cba"));
  check_str "pp" "{a,b}" (Format.asprintf "%a" pp (of_string "ba"))

let test_word_pp () =
  check_str "word" "ab" (Format.asprintf "%a" Automata.Word.pp "ab");
  check "eps rendered" true (Format.asprintf "%a" Automata.Word.pp "" <> "")

let test_printers_smoke () =
  (* the pretty-printers must at least produce non-empty output *)
  let nonempty s = String.length s > 0 in
  check "nfa pp" true (nonempty (Format.asprintf "%a" Automata.Nfa.pp (lang "ab|c*")));
  check "dfa pp" true
    (nonempty (Format.asprintf "%a" Automata.Dfa.pp (Automata.Dfa.of_nfa (lang "ab"))));
  let d = Graphdb.Db.make ~nnodes:2 ~facts:[ (0, 'a', 1) ] in
  check "db pp" true (nonempty (Format.asprintf "%a" Graphdb.Db.pp d));
  let net = Flow.Network.create () in
  let v1 = Flow.Network.add_vertex net and v2 = Flow.Network.add_vertex net in
  ignore (Flow.Network.add_edge net ~src:v1 ~dst:v2 (Flow.Network.Finite 1));
  check "network pp" true (nonempty (Format.asprintf "%a" Flow.Network.pp net));
  check "capacity pp" true
    (nonempty (Format.asprintf "%a" Flow.Network.pp_capacity Flow.Network.Inf));
  check "iset pp" true
    (nonempty (Format.asprintf "%a" Hypergraph.Iset.pp (Hypergraph.Iset.of_list [ 1; 2 ])))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report () =
  (match Report.analyze "abca|cab" with
  | Ok r ->
      let md = Report.to_markdown r in
      check "mentions verdict" true (contains md "NP-hard" && contains md "gadget")
  | Error e -> Alcotest.fail e);
  (match Report.analyze ~try_gadget:false "ax*b" with
  | Ok r ->
      check "local reported" true r.Report.local;
      check "no gadget attempted" true (r.Report.gadget = None)
  | Error _ -> Alcotest.fail "analyze failed");
  check "syntax error" true (Result.is_error (Report.analyze "a|"))

let test_solver_reuse_classification () =
  let l = lang "ax*b" in
  let c = Classify.classify l in
  let d = Graphdb.Generate.flow_grid ~width:2 ~depth:2 ~seed:1 () in
  let r1 = Solver.solve ~classification:c d l in
  let r2 = Solver.solve d l in
  check "same value" true (Cert.Value.equal r1.Solver.value r2.Solver.value)

let test_nfa_misc () =
  let a = lang "ab" in
  let a2 = Automata.Nfa.with_alphabet (Automata.Cset.of_string "xyz") a in
  check "alphabet grew" true (Automata.Cset.cardinal a2.Automata.Nfa.alphabet = 5);
  check "language unchanged" true (Automata.Lang.equiv a a2);
  check "size positive" true (Automata.Nfa.size a > 0);
  let r = Automata.Nfa.rename (fun c -> Char.uppercase_ascii c) a in
  check "renamed" true (Automata.Nfa.accepts r "AB" && not (Automata.Nfa.accepts r "ab"))

let test_word_conversions () =
  Alcotest.(check (list char)) "to_list" [ 'a'; 'b' ] (Automata.Word.to_list "ab");
  check_str "of_list" "ab" (Automata.Word.of_list [ 'a'; 'b' ]);
  Alcotest.(check int) "length" 2 (Automata.Word.length "ab")

let () =
  Alcotest.run "misc"
    [
      ( "small modules",
        [
          Alcotest.test_case "Value" `Quick test_value;
          Alcotest.test_case "Cset" `Quick test_cset;
          Alcotest.test_case "Word pp" `Quick test_word_pp;
          Alcotest.test_case "printers" `Quick test_printers_smoke;
          Alcotest.test_case "word conversions" `Quick test_word_conversions;
          Alcotest.test_case "nfa misc" `Quick test_nfa_misc;
        ] );
      ( "report & solver",
        [
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "classification reuse" `Quick test_solver_reuse_classification;
        ] );
    ]
