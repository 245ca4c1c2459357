(* Tests for hypergraphs, condensation (Claim 4.8) and hitting sets. *)
module H = Hypergraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk vs es = H.make ~vertices:vs ~edges:es

let test_make () =
  let h = mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 2; 1 ] ] in
  check_int "dedup edges" 2 (H.edge_count h);
  check_int "vertices" 3 (H.vertex_count h);
  check "bad vertex rejected" true
    (try
       ignore (mk [ 1 ] [ [ 2 ] ]);
       false
     with Invalid_argument _ -> true)

let test_edge_domination () =
  (* {1,2} ⊂ {1,2,3}: the superset is removed *)
  let h = H.condense (mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 1; 2; 3 ] ]) in
  check "edges" true (H.edges h = [ [ 1; 2 ] ] || H.edges h = [ [ 1 ] ] || H.edges h = [ [ 2 ] ])

let test_node_domination () =
  (* vertex 3 occurs only where 2 occurs: it is dominated *)
  let h = H.condense ~protected:[ 1; 2 ] (mk [ 1; 2; 3 ] [ [ 1; 2; 3 ]; [ 2; 3 ] ]) in
  check "3 removed" true (not (List.mem 3 (H.vertices h)))

let test_protected () =
  let h0 = mk [ 1; 2 ] [ [ 1; 2 ] ] in
  let h = H.condense ~protected:[ 1; 2 ] h0 in
  check "protected survive" true (List.mem 1 (H.vertices h) && List.mem 2 (H.vertices h));
  check "edge intact" true (H.edges h = [ [ 1; 2 ] ])

let test_odd_path () =
  let path = mk [ 1; 2; 3; 4 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  check "odd path" true (H.is_odd_path path ~src:1 ~dst:4);
  check "wrong endpoints" false (H.is_odd_path path ~src:1 ~dst:3);
  let even = mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  check "even path" false (H.is_odd_path even ~src:1 ~dst:3);
  let tri = mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ] in
  check "cycle" false (H.is_odd_path tri ~src:1 ~dst:2);
  let big = mk [ 1; 2; 3 ] [ [ 1; 2; 3 ] ] in
  check "size-3 edge" false (H.is_odd_path big ~src:1 ~dst:2);
  (* isolated vertices are tolerated *)
  let iso = mk [ 0; 1; 2; 3; 4 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  check "isolated ok" true (H.is_odd_path iso ~src:1 ~dst:4)

let test_path_endpoints () =
  match H.path_endpoints_length (mk [ 1; 2; 3; 4 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]) with
  | Some (a, b, len) ->
      check "endpoints" true ((a, b) = (1, 4) || (a, b) = (4, 1));
      check_int "length" 3 len
  | None -> Alcotest.fail "expected a path"

let test_hitting_set () =
  let h = mk [ 1; 2; 3; 4 ] [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  let v, s = H.min_hitting_set h in
  check_int "value" 2 v;
  check "witness hits" true
    (List.for_all (fun e -> List.exists (fun x -> List.mem x s) e) (H.edges h));
  (* weighted: making 2 expensive steers the optimum to {1, 3} *)
  let w v = if v = 2 then 10 else 1 in
  let v2, _ = H.min_hitting_set ~weights:w h in
  check_int "weighted value" 2 v2;
  check "empty edge rejected" true
    (try
       ignore (H.min_hitting_set (mk [ 1 ] [ [] ]));
       false
     with Invalid_argument _ -> true)

let test_hitting_set_empty () =
  let v, s = H.min_hitting_set (mk [ 1; 2 ] []) in
  check_int "no edges" 0 v;
  check "empty witness" true (s = [])

let test_trace () =
  let h = mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 1; 2; 3 ] ] in
  let c, steps = H.condense_trace ~protected:[ 1 ] h in
  check "some steps" true (steps <> []);
  check "edge-domination recorded" true
    (List.exists (function H.Removed_edge [ 1; 2; 3 ] -> true | _ -> false) steps);
  (* replaying the trace is consistent: the condensed result equals condense *)
  check "same as condense" true (H.edges c = H.edges (H.condense ~protected:[ 1 ] h))

let qcheck = QCheck_alcotest.to_alcotest

let gen_hg =
  QCheck.Gen.(
    let* n = int_range 1 7 in
    let* m = int_range 0 6 in
    let* edges =
      list_repeat m (list_size (int_range 1 3) (int_bound (n - 1)))
    in
    return (List.init n Fun.id, edges))

let arb_hg =
  QCheck.make
    ~print:(fun (vs, es) ->
      Printf.sprintf "V=%d E=[%s]" (List.length vs)
        (String.concat ";" (List.map (fun e -> String.concat "," (List.map string_of_int e)) es)))
    gen_hg

let prop_condense_preserves_hitting_set =
  QCheck.Test.make ~name:"condensation preserves min hitting set (Claim 4.8)" ~count:300 arb_hg
    (fun (vs, es) ->
      let h = mk vs es in
      let c = H.condense h in
      H.min_hitting_set_bruteforce h = H.min_hitting_set_bruteforce c)

let prop_bnb_equals_brute =
  QCheck.Test.make ~name:"branch and bound = brute force" ~count:300 arb_hg (fun (vs, es) ->
      let h = mk vs es in
      fst (H.min_hitting_set h) = H.min_hitting_set_bruteforce h)

(* Set trees depend on insertion order: {1,2,3} built 1,2,3 is a right
   spine, built 2,1,3 is balanced. The content-keyed table must not care. *)
let test_iset_tbl () =
  let s1 = H.Iset.add 3 (H.Iset.add 2 (H.Iset.singleton 1)) in
  let s2 = H.Iset.add 3 (H.Iset.add 1 (H.Iset.singleton 2)) in
  check "equal content" true (H.Iset.equal s1 s2);
  check "different trees" true (Stdlib.compare s1 s2 <> 0);
  let t = H.Iset.Tbl.create 8 in
  H.Iset.Tbl.add t s1 "found";
  check "found by content" true (H.Iset.Tbl.find_opt t s2 = Some "found");
  H.Iset.Tbl.replace t s2 "replaced";
  check_int "one binding" 1 (H.Iset.Tbl.length t)

let test_greedy () =
  (* vertex 2 hits both edges: greedy must find the optimal singleton *)
  let cost, set = H.greedy_hitting_set (mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 2; 3 ] ]) in
  check_int "greedy picks the hub" 1 cost;
  check "set is {2}" true (set = [ 2 ]);
  let cost0, set0 = H.greedy_hitting_set (mk [ 1 ] []) in
  check_int "no edges: cost 0" 0 cost0;
  check "no edges: empty set" true (set0 = []);
  (* heavy hub vs two light leaves: weights must steer the choice *)
  let w v = if v = 2 then 10 else 1 in
  let costw, setw = H.greedy_hitting_set ~weights:w (mk [ 1; 2; 3 ] [ [ 1; 2 ]; [ 2; 3 ] ]) in
  check_int "weighted greedy avoids the heavy hub" 2 costw;
  check "picks the leaves" true (List.sort compare setw = [ 1; 3 ])

let prop_greedy_upper_bound =
  QCheck.Test.make ~name:"greedy hitting set is feasible and upper-bounds the optimum" ~count:300
    (QCheck.pair arb_hg (QCheck.make QCheck.Gen.(int_range 1 5)))
    (fun ((vs, es), wseed) ->
      let h = mk vs es in
      let w v = 1 + ((v * wseed) mod 4) in
      let cost, set = H.greedy_hitting_set ~weights:w h in
      List.for_all (fun e -> List.exists (fun v -> List.mem v set) e) (H.edges h)
      && cost = List.fold_left (fun a v -> a + w v) 0 set
      && cost >= H.min_hitting_set_bruteforce ~weights:w h)

let prop_weighted_bnb =
  QCheck.Test.make ~name:"weighted branch and bound = weighted brute force" ~count:200
    (QCheck.pair arb_hg (QCheck.make QCheck.Gen.(int_range 1 5)))
    (fun ((vs, es), wseed) ->
      let h = mk vs es in
      let w v = 1 + ((v * wseed) mod 4) in
      fst (H.min_hitting_set ~weights:w h) = H.min_hitting_set_bruteforce ~weights:w h)

(* Edge domination and the greedy hitting set as they were before the
   least-vertex index and the count array: an O(E²) subset scan, and a
   Hashtbl recount of every live edge per pick. *)
module Greedy_oracle = struct
  module ISet = H.Iset

  let minimal_edges_trace edge_sets =
    let edge_sets = List.sort_uniq ISet.compare edge_sets in
    List.partition
      (fun e ->
        not (List.exists (fun e' -> (not (ISet.equal e e')) && ISet.subset e' e) edge_sets))
      edge_sets

  let greedy_hitting_set ~weights edge_sets =
    let edges = ref (fst (minimal_edges_trace edge_sets)) in
    if List.exists ISet.is_empty !edges then invalid_arg "empty edge";
    let chosen = ref [] and cost = ref 0 in
    while !edges <> [] do
      let count = Hashtbl.create 16 in
      List.iter
        (fun e ->
          ISet.iter
            (fun v ->
              Hashtbl.replace count v (1 + Option.value ~default:0 (Hashtbl.find_opt count v)))
            e)
        !edges;
      let pick =
        Hashtbl.fold
          (fun v k acc ->
            match acc with
            | None -> Some (v, k)
            | Some (v', k') ->
                let better =
                  let l = k * weights v' and r = k' * weights v in
                  l > r || (l = r && v < v')
                in
                if better then Some (v, k) else acc)
          count None
      in
      match pick with
      | None -> invalid_arg "no vertex"
      | Some (v, _) ->
          chosen := v :: !chosen;
          cost := !cost + weights v;
          edges := List.filter (fun e -> not (ISet.mem v e)) !edges
    done;
    (!cost, List.rev !chosen)
end

(* Larger than [gen_hg], with vertex ids that need not start at 0, short
   edges (matches are short) and, now and then, an empty edge. *)
let gen_big_hg =
  QCheck.Gen.(
    let* n = int_range 1 30 in
    let* base = int_range (-3) 5 in
    let* m = int_range 0 60 in
    let* edges = list_repeat m (list_size (int_range 1 5) (map (( + ) base) (int_bound (n - 1)))) in
    let* empty = frequency [ (9, return []); (1, return [ [] ]) ] in
    return (List.init n (( + ) base), empty @ edges))

let prop_greedy_vs_oracle =
  QCheck.Test.make ~name:"greedy hitting set = the recounting greedy (picks and their order)"
    ~count:500
    (QCheck.pair (QCheck.make ~print:(QCheck.Print.(pair (list int) (list (list int)))) gen_big_hg)
       (QCheck.make QCheck.Gen.(int_range 1 7)))
    (fun ((vs, es), wseed) ->
      let h = mk vs es in
      let weights v = 1 + (abs (v * wseed) mod 5) in
      let run f = match f () with r -> Ok r | exception Invalid_argument _ -> Error () in
      run (fun () -> H.greedy_hitting_set ~weights h)
      = run (fun () ->
            Greedy_oracle.greedy_hitting_set ~weights (List.map H.Iset.of_list (H.edges h))))

let prop_edge_domination_vs_oracle =
  (* With every vertex protected node domination never fires, so the
     condensation is one round of edge domination: its kept edges and
     the removed ones, in order. *)
  QCheck.Test.make ~name:"edge domination = the pairwise subset scan" ~count:500
    (QCheck.make ~print:(QCheck.Print.(pair (list int) (list (list int)))) gen_big_hg)
    (fun (vs, es) ->
      let c, trace = H.condense_trace ~protected:vs (mk vs es) in
      let kept, removed =
        Greedy_oracle.minimal_edges_trace (List.map H.Iset.of_list es)
      in
      H.edges c = List.map H.Iset.elements kept
      && trace = List.map (fun e -> H.Removed_edge (H.Iset.elements e)) removed)

let () =
  Alcotest.run "hypergraph"
    [
      ( "structure",
        [
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "edge domination" `Quick test_edge_domination;
          Alcotest.test_case "node domination" `Quick test_node_domination;
          Alcotest.test_case "protected vertices" `Quick test_protected;
          Alcotest.test_case "odd path" `Quick test_odd_path;
          Alcotest.test_case "path endpoints" `Quick test_path_endpoints;
          Alcotest.test_case "condensation trace" `Quick test_trace;
        ] );
      ( "hitting set",
        [
          Alcotest.test_case "basic" `Quick test_hitting_set;
          Alcotest.test_case "no edges" `Quick test_hitting_set_empty;
          Alcotest.test_case "greedy" `Quick test_greedy;
          Alcotest.test_case "content-keyed set table" `Quick test_iset_tbl;
        ] );
      ( "properties",
        List.map qcheck
          [
            prop_condense_preserves_hitting_set;
            prop_bnb_equals_brute;
            prop_weighted_bnb;
            prop_greedy_upper_bound;
            prop_greedy_vs_oracle;
            prop_edge_domination_vs_oracle;
          ] );
    ]
