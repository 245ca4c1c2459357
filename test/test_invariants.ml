(* The invariant-validation layer: [validate] must accept everything the
   public constructors build, reject seeded corruptions (built through the
   unsafe_* constructors), and paranoid Check mode must not change any
   solver's answer. *)
open Resilience
module Db = Graphdb.Db
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Net = Flow.Network

let qcheck = QCheck_alcotest.to_alcotest
let check = Alcotest.(check bool)

let ok_or_report name = function
  | Ok () -> ()
  | Error vs -> Alcotest.failf "%s: %s" name (Invariant.violations_to_string vs)

let is_error name = function
  | Ok () -> Alcotest.failf "%s: corruption not detected" name
  | Error (_ : Invariant.violation list) -> ()

(* ---- Generators ---- *)

let arb_db ?(max_mult = 3) ~max_facts () =
  QCheck.make
    ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 1000000 in
      let* nnodes = int_range 2 5 in
      let* nfacts = int_range 1 max_facts in
      return
        (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet:[ 'a'; 'b'; 'c'; 'x' ] ~max_mult
           ~seed ()))

let arb_words =
  QCheck.make
    ~print:(String.concat ",")
    QCheck.Gen.(
      small_list (string_size ~gen:(char_range 'a' 'd') (int_range 1 4)) >|= fun ws ->
      if ws = [] then [ "a" ] else ws)

let arb_network =
  QCheck.make
    ~print:(fun (net, _, _) -> Format.asprintf "%a" Net.pp net)
    QCheck.Gen.(
      let* nv = int_range 2 7 in
      let* edges =
        list_size (int_range 1 14)
          (triple (int_bound (nv - 1)) (int_bound (nv - 1)) (int_range 0 9))
      in
      let net = Net.create () in
      for _ = 1 to nv do
        ignore (Net.add_vertex net)
      done;
      List.iter
        (fun (s, d, c) -> ignore (Net.add_edge net ~src:s ~dst:d (Net.Finite c)))
        edges;
      return (net, 0, nv - 1))

(* ---- validate accepts what the constructors build ---- *)

let prop_nfa_validates =
  QCheck.Test.make ~name:"Nfa/Dfa.validate accept constructed automata" ~count:100 arb_words
    (fun ws ->
      let a = Nfa.of_words ws in
      ok_or_report "nfa" (Nfa.validate a);
      ok_or_report "dfa" (Dfa.validate ~expect_reachable:true (Dfa.of_nfa a));
      true)

let prop_db_validates =
  QCheck.Test.make ~name:"Db.validate accepts generated databases" ~count:150
    (arb_db ~max_facts:10 ()) (fun d ->
      ok_or_report "db" (Db.validate d);
      ok_or_report "restrict"
        (Db.validate (Db.restrict d ~removed:(fun id -> id mod 2 = 0)));
      true)

let prop_network_validates =
  QCheck.Test.make ~name:"Network.validate + MinCut certificates" ~count:100 arb_network
    (fun (net, source, sink) ->
      ok_or_report "network" (Net.validate net);
      let cut, flow = Net.min_cut_certified net ~source ~sink in
      ok_or_report "dinic certificate" (Net.validate_certificate net ~source ~sink cut ~flow);
      let cut', flow' = Flow.Push_relabel.min_cut_certified net ~source ~sink in
      ok_or_report "push-relabel certificate"
        (Net.validate_certificate net ~source ~sink cut' ~flow:flow');
      check "algorithms agree" true (Net.cap_compare cut.Net.value cut'.Net.value = 0);
      true)

let test_hypergraph_validate () =
  let h = Hypergraph.make ~vertices:[ 0; 1; 2; 3 ] ~edges:[ [ 0; 1 ]; [ 2; 1; 3 ] ] in
  ok_or_report "hypergraph" (Hypergraph.validate h)

let test_simplex_validate () =
  let p =
    Lp.Simplex.lp_relaxation_of_cover ~nvars:3 ~weights:[| 1.0; 2.0; 1.0 |]
      ~sets:[ [ 0; 1 ]; [ 1; 2 ] ]
  in
  ok_or_report "problem" (Lp.Simplex.validate_problem p);
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal { value; solution } ->
      ok_or_report "solution" (Lp.Simplex.validate_solution p ~value ~solution)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> Alcotest.fail "cover LP must be optimal"

let test_submodular_validate () =
  (* Coverage functions are submodular; |S|² is strictly supermodular. *)
  let sets = [| [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ]; [ 1; 3 ] |] in
  let coverage z =
    let covered = Hashtbl.create 8 in
    Array.iteri (fun i s -> if z.(i) then List.iter (fun v -> Hashtbl.replace covered v ()) s) sets;
    Hashtbl.length covered
  in
  ok_or_report "coverage (exhaustive)" (Submodular.Sfm.validate_submodular ~n:5 coverage);
  let card2 z =
    let c = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 z in
    c * c
  in
  is_error "|S|^2 (exhaustive)" (Submodular.Sfm.validate_submodular ~n:5 card2);
  (* Large ground set: the sampled path must still catch it. *)
  is_error "|S|^2 (sampled)" (Submodular.Sfm.validate_submodular ~samples:400 ~n:16 card2)

(* ---- validate rejects seeded corruptions ---- *)

let test_corrupt_nfa () =
  let alphabet = Automata.Cset.of_string "ab" in
  is_error "transition target out of range"
    (Nfa.validate
       (Nfa.unsafe_create ~nstates:2 ~alphabet ~initial:[ 0 ] ~final:[ 1 ]
          ~trans:[ (0, Nfa.Ch 'a', 5) ]));
  is_error "initial state out of range"
    (Nfa.validate
       (Nfa.unsafe_create ~nstates:2 ~alphabet ~initial:[ -1 ] ~final:[ 1 ] ~trans:[]));
  is_error "letter outside the alphabet"
    (Nfa.validate
       (Nfa.unsafe_create ~nstates:2 ~alphabet ~initial:[ 0 ] ~final:[ 1 ]
          ~trans:[ (0, Nfa.Ch 'z', 1) ]))

let test_corrupt_dfa () =
  is_error "unsorted alphabet"
    (Dfa.validate
       (Dfa.unsafe_create ~nstates:1 ~alpha:[| 'b'; 'a' |] ~init:0 ~final:[| false |]
          ~delta:[| [| 0; 0 |] |]));
  is_error "non-total row"
    (Dfa.validate
       (Dfa.unsafe_create ~nstates:2 ~alpha:[| 'a' |] ~init:0 ~final:[| false; true |]
          ~delta:[| [| 1 |]; [||] |]));
  is_error "unreachable state"
    (Dfa.validate ~expect_reachable:true
       (Dfa.unsafe_create ~nstates:2 ~alpha:[| 'a' |] ~init:0 ~final:[| false; true |]
          ~delta:[| [| 0 |]; [| 1 |] |]))

let test_corrupt_network () =
  let net = Net.create () in
  let a = Net.add_vertex net and b = Net.add_vertex net in
  ignore (Net.unsafe_add_edge net ~src:a ~dst:b (Net.Finite (-3)));
  is_error "negative capacity" (Net.validate net);
  let net2 = Net.create () in
  let s = Net.add_vertex net2 and t = Net.add_vertex net2 in
  let e = Net.add_edge net2 ~src:s ~dst:t (Net.Finite 4) in
  is_error "flow exceeding capacity"
    (Net.validate_flow net2 ~source:s ~sink:t ~flow:[| 7 |] ~value:7);
  is_error "flow/value mismatch"
    (Net.validate_flow net2 ~source:s ~sink:t ~flow:[| 3 |] ~value:2);
  is_error "cut value mismatch"
    (Net.validate_cut net2 ~source:s ~sink:t { Net.value = Net.Finite 3; edges = [ e ] });
  is_error "cut not disconnecting"
    (Net.validate_cut net2 ~source:s ~sink:t { Net.value = Net.Finite 0; edges = [] })

let test_corrupt_db () =
  is_error "multiplicity below one"
    (Db.validate (Db.unsafe_make_bag ~nnodes:2 ~facts:[ (0, 'a', 1, 0) ]));
  is_error "node out of range"
    (Db.validate (Db.unsafe_make_bag ~nnodes:2 ~facts:[ (0, 'a', 9, 1) ]));
  is_error "unmerged duplicate facts"
    (Db.validate (Db.unsafe_make_bag ~nnodes:2 ~facts:[ (0, 'a', 1, 1); (0, 'a', 1, 2) ]))

let test_corrupt_hypergraph () =
  is_error "undeclared vertex"
    (Hypergraph.validate
       (Hypergraph.unsafe_make ~vertices:[ 0; 1 ] ~edges:[ [ 0; 7 ] ]));
  is_error "duplicate edge"
    (Hypergraph.validate
       (Hypergraph.unsafe_make ~vertices:[ 0; 1; 2 ] ~edges:[ [ 0; 1 ]; [ 1; 0 ] ]))

let test_corrupt_simplex () =
  is_error "dimension mismatch"
    (Lp.Simplex.validate_problem
       {
         Lp.Simplex.ncols = 2;
         objective = [| 1.0 |];
         rows = [ ([| 1.0; 1.0 |], 1.0) ];
         upper = [| None; None |];
       });
  is_error "non-finite coefficient"
    (Lp.Simplex.validate_problem
       {
         Lp.Simplex.ncols = 1;
         objective = [| Float.nan |];
         rows = [];
         upper = [| None |];
       })

(* ---- paranoid mode: same answers, just slower ---- *)

let prop_paranoid_same_answers =
  let langs = [ "ax*b"; "ab|bc"; "abc|be"; "aa"; "a*"; "abc" ] in
  QCheck.Test.make ~name:"paranoid Check mode does not change solver answers" ~count:60
    (QCheck.pair (arb_db ~max_facts:8 ()) (QCheck.oneofl langs))
    (fun (d, l) ->
      let a = Automata.Lang.of_string l in
      let off = Check.with_level Check.Off (fun () -> Solver.resilience d a) in
      let paranoid = Check.with_level Check.Paranoid (fun () -> Solver.resilience d a) in
      check (Printf.sprintf "%s under paranoid" l) true (Cert.Value.equal off paranoid);
      true)

let prop_paranoid_st_resilience =
  QCheck.Test.make ~name:"paranoid Check mode: st-resilience unchanged" ~count:40
    (arb_db ~max_facts:8 ()) (fun d ->
      let a = Automata.Lang.of_string "ax*b" in
      let src = 0 and dst = Db.nnodes d - 1 in
      let off = Check.with_level Check.Off (fun () -> St_resilience.resilience d a ~src ~dst) in
      let paranoid =
        Check.with_level Check.Paranoid (fun () -> St_resilience.resilience d a ~src ~dst)
      in
      check "st under paranoid" true (Cert.Value.equal off paranoid);
      true)

let () =
  Alcotest.run "invariants"
    [
      ( "validate accepts",
        [
          qcheck prop_nfa_validates;
          qcheck prop_db_validates;
          qcheck prop_network_validates;
          Alcotest.test_case "hypergraph" `Quick test_hypergraph_validate;
          Alcotest.test_case "simplex" `Quick test_simplex_validate;
          Alcotest.test_case "submodular" `Quick test_submodular_validate;
        ] );
      ( "validate rejects corruption",
        [
          Alcotest.test_case "nfa" `Quick test_corrupt_nfa;
          Alcotest.test_case "dfa" `Quick test_corrupt_dfa;
          Alcotest.test_case "network" `Quick test_corrupt_network;
          Alcotest.test_case "db" `Quick test_corrupt_db;
          Alcotest.test_case "hypergraph" `Quick test_corrupt_hypergraph;
          Alcotest.test_case "simplex" `Quick test_corrupt_simplex;
        ] );
      ( "paranoid mode",
        [ qcheck prop_paranoid_same_answers; qcheck prop_paranoid_st_resilience ] );
    ]
