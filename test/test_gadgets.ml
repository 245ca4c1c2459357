(* Verification of every hardness gadget of the paper (the companion-artifact
   role of this library), plus end-to-end Vertex Cover reductions. *)
open Resilience

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- framework ---- *)

let test_well_formed () =
  let g, _ = Gadgets.gadget_aa () in
  check "aa well-formed" true (Gadgets.well_formed g = Ok ());
  (* a gadget with t_in as a head is rejected *)
  let bad = Gadgets.build ~name:"bad" ~label:'a' [ ("u", "a", "t_in"); ("t_out", "a", "v") ] in
  check "bad rejected" true (Gadgets.well_formed bad <> Ok ())

let test_completion () =
  let g, _ = Gadgets.gadget_aa () in
  let c = Gadgets.complete g in
  check_int "two extra facts" (Graphdb.Db.fact_count g.Gadgets.db + 2)
    (Graphdb.Db.fact_count c.Gadgets.db');
  let fin = Graphdb.Db.fact c.Gadgets.db' c.Gadgets.f_in in
  check "F_in points to t_in" true (fin.Graphdb.Db.dst = g.Gadgets.t_in);
  check "F_in labeled" true (fin.Graphdb.Db.label = g.Gadgets.label)

let test_verify_aa_details () =
  let g, l = Gadgets.gadget_aa () in
  let v = Gadgets.verify g l in
  check "valid" true v.Gadgets.ok;
  Alcotest.(check (option int)) "odd path length 5" (Some 5) v.Gadgets.odd_path_length;
  (* the raw hypergraph of matches has 5 hyperedges (Fig 3b) *)
  check_int "5 matches" 5 (Hypergraph.edge_count v.Gadgets.matches)

let test_invalid_gadget_detected () =
  (* the aa pre-gadget used with language aaaa is not a gadget *)
  let g, _ = Gadgets.gadget_aa () in
  let v = Gadgets.verify g (lang "aaaa") in
  check "invalid" false v.Gadgets.ok

(* ---- all paper gadgets ---- *)

let test_all_paper_gadgets () =
  List.iter
    (fun (name, g, l) ->
      let v = Gadgets.verify g l in
      check (name ^ " verifies") true v.Gadgets.ok;
      (match v.Gadgets.odd_path_length with
      | Some len -> check (name ^ " odd length") true (len mod 2 = 1)
      | None -> Alcotest.fail (name ^ ": no path length"));
      (* the language certified must be reduced (hypothesis of Prop 4.11) *)
      check (name ^ " language reduced") true (Automata.Reduce.is_reduced l))
    (Gadgets.all_paper_gadgets ())

let test_expected_lengths () =
  let find name =
    let _, g, l =
      List.find (fun (n, _, _) -> n = name) (Gadgets.all_paper_gadgets ())
    in
    (Gadgets.verify g l).Gadgets.odd_path_length
  in
  Alcotest.(check (option int)) "aa has the paper's length 5" (Some 5) (find "aa (Fig 3a)");
  Alcotest.(check (option int)) "aba|bab length 5" (Some 5) (find "aba|bab (Fig 11)")

(* Generic four-legged case 1 on further instances. *)
let test_case1_instances () =
  let cases =
    [
      ("axb|cxd", 'x', "a", "b", "c", "d");
      ("aexfb|cgxhd", 'x', "ae", "fb", "cg", "hd");
      ("abxcb|dxeb", 'x', "ab", "cb", "d", "eb");
      ("ayb|cyd", 'y', "a", "b", "c", "d");
    ]
  in
  List.iter
    (fun (s, x, al, be, ga, de) ->
      let l = lang s in
      let g = Gadgets.gadget_four_legged_case1 ~x ~alpha:al ~beta:be ~gamma:ga ~delta:de l in
      check (s ^ " case-1 gadget") true (Gadgets.verify g l).Gadgets.ok)
    cases

let test_case2_instances () =
  let l = lang "axb|ccxd|cxb" in
  let g = Gadgets.gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"cc" ~delta:"d" l in
  check "case-2 gadget verifies" true (Gadgets.verify g l).Gadgets.ok;
  (* |γ'| = 1 with single-letter legs: the searched gadget *)
  let l1 = lang "axb|cxd|cxb" in
  let g1 = Gadgets.gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"c" ~delta:"d" l1 in
  check "short case-2 gadget verifies" true (Gadgets.verify g1 l1).Gadgets.ok;
  (* |γ'| = 1 with longer legs is out of scope for the generic construction *)
  check "short gamma with long legs rejected" true
    (try
       ignore
         (Gadgets.gadget_four_legged_case2 ~x:'x' ~alpha:"ae" ~beta:"b" ~gamma:"c" ~delta:"d" l);
       false
     with Invalid_argument _ -> true)

(* Gadgets for the Theorem 6.1 case analysis on more instances. *)
let test_thm61_gadget_family () =
  List.iter
    (fun gamma ->
      let g, l = Gadgets.gadget_a_gamma_a ~gamma () in
      check ("a" ^ gamma ^ "a gadget") true (Gadgets.verify g l).Gadgets.ok)
    [ ""; "b"; "bc"; "bcd" ];
  List.iter
    (fun (gamma, delta) ->
      let g, l = Gadgets.gadget_a_gamma_a_delta ~gamma ~delta () in
      check ("a" ^ gamma ^ "a" ^ delta ^ " gadget") true (Gadgets.verify g l).Gadgets.ok)
    [ ("b", "c"); ("b", "d"); ("bc", "d"); ("", "b") ]

(* ---- encodings and the end-to-end reduction (Prop 4.11) ---- *)

let test_fig14_family () =
  List.iter
    (fun eta ->
      let g, l = Gadgets.gadget_axeya_yax ~eta () in
      check (g.Gadgets.name ^ " verifies") true (Gadgets.verify g l).Gadgets.ok)
    [ ""; "c"; "cd"; "cde" ]

let test_encode_structure () =
  let g, _ = Gadgets.gadget_aa () in
  let graph = Graphs.Ugraph.cycle 3 in
  let xi = Gadgets.encode g graph in
  (* 3 vertex facts + 3 copies of the 4-fact pre-gadget *)
  check_int "encoding size" (3 + (3 * 4)) (Graphdb.Db.fact_count xi);
  check "acyclic" true (Graphdb.Db.is_acyclic xi)

let test_reduction_aa () =
  let g, l = Gadgets.gadget_aa () in
  List.iter
    (fun graph -> check "Prop 4.11 check" true (Gadgets.reduction_check g l graph))
    [ Graphs.Ugraph.cycle 3; Graphs.Ugraph.path 4; Graphs.Ugraph.complete 3;
      Graphs.Ugraph.make ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (0, 2) ] ]

let test_reduction_values () =
  (* RES_set(aa, encode(triangle)) = vc(C3) + 3·(5−1)/2 = 2 + 6 = 8 *)
  let g, l = Gadgets.gadget_aa () in
  check_int "expected value on triangle" 8
    (Gadgets.expected_resilience g l (Graphs.Ugraph.cycle 3));
  let xi = Gadgets.encode g (Graphs.Ugraph.cycle 3) in
  let v, _ = Exact.hitting_set xi l in
  check "matches expectation" true (Cert.Value.equal v (Cert.Value.Finite 8))

let test_reduction_other_gadgets () =
  let graph = Graphs.Ugraph.path 3 in
  List.iter
    (fun (name, g, l) ->
      check (name ^ " reduction on P3") true (Gadgets.reduction_check g l graph))
    (* keep the expensive end-to-end run to a representative subset *)
    (List.filter
       (fun (name, _, _) ->
         List.exists
           (fun p -> p = name)
           [ "aa (Fig 3a)"; "aab (Fig 13)"; "ab|bc|ca (Fig 15)"; "aba|bab (Fig 11)" ])
       (Gadgets.all_paper_gadgets ()))

let qcheck = QCheck_alcotest.to_alcotest

let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graphs.Ugraph.pp g)
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* seed = int_bound 10000 in
      return (Graphs.Ugraph.random ~n ~p:0.5 ~seed))

let prop_aa_reduction_random =
  QCheck.Test.make ~name:"Prop 4.11 on random graphs (aa gadget)" ~count:25 arb_graph (fun graph ->
      let g, l = Gadgets.gadget_aa () in
      Gadgets.reduction_check g l graph)

let () =
  Alcotest.run "gadgets"
    [
      ( "framework",
        [
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "completion" `Quick test_completion;
          Alcotest.test_case "verify aa (Fig 3a/3b)" `Quick test_verify_aa_details;
          Alcotest.test_case "invalid detected" `Quick test_invalid_gadget_detected;
        ] );
      ( "paper gadgets",
        [
          Alcotest.test_case "all verify" `Quick test_all_paper_gadgets;
          Alcotest.test_case "expected lengths" `Quick test_expected_lengths;
          Alcotest.test_case "case-1 instances" `Quick test_case1_instances;
          Alcotest.test_case "case-2 instances" `Quick test_case2_instances;
          Alcotest.test_case "Thm 6.1 families" `Quick test_thm61_gadget_family;
          Alcotest.test_case "Fig 14 family" `Quick test_fig14_family;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "encode structure" `Quick test_encode_structure;
          Alcotest.test_case "aa on graphs" `Slow test_reduction_aa;
          Alcotest.test_case "values" `Quick test_reduction_values;
          Alcotest.test_case "other gadgets" `Slow test_reduction_other_gadgets;
        ] );
      ("properties", List.map qcheck [ prop_aa_reduction_random ]);
    ]
