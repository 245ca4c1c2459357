(* Figure-regeneration and paper-reproduction harness.

   `dune exec bench/main.exe` regenerates every table and figure of the paper
   (Figures 1-17 as machine-checked artifacts), re-checks the solvers'
   values on the tractability theorems (Theorem 3.3, Propositions 7.5 and
   7.7), runs the ablation tables and prints the scaling series.

   `dune exec bench/main.exe -- fig1 thm33` etc. selects sections by name.
   Performance is measured end to end by perfbench/ (perfbench/README.md). *)

open Resilience
module Db = Graphdb.Db

let lang = Automata.Lang.of_string

let selected name =
  let args = Array.to_list Sys.argv |> List.tl in
  args = [] || List.mem name args

(* Wall-clock timing for the scaling series and the ablation tables. *)
let time_it f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  let t1 = Obs.Clock.now () in
  (r, t1 -. t0)

(* A value check prints its verdict; any failed check makes the run exit 1. *)
let failed_checks = ref 0

let verdict ok ~pass ~fail =
  if ok then pass
  else begin
    incr failed_checks;
    fail
  end

let section name title f =
  if selected name then begin
    Printf.printf "\n==== %s ====\n%!" title;
    f ()
  end

(* ------------------------------------------------------------------ *)
(* FIG1: the classification table.                                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  Printf.printf
    "Figure 1: complexity of resilience (classifier output, matches the paper cell for cell)\n\n";
  let row kind names =
    Printf.printf "-- %s --\n" kind;
    List.iter
      (fun s ->
        let c = Classify.classify_regex s in
        Printf.printf "  %-18s %s\n" s (Classify.verdict_summary c.Classify.verdict))
      names
  in
  row "infinite / PTIME" [ "ax*b" ];
  row "infinite / unclassified" [ "ax*b|xd" ];
  row "infinite / NP-hard" [ "ax*b|cxd"; "b(aa)*d" ];
  row "finite / PTIME (local)" [ "abc|abd"; "ab|ad|cd"; "abc" ];
  row "finite / PTIME (submodularity, Prp 7.7)" [ "abc|be"; "abcd|ce" ];
  row "finite / PTIME (bipartite chain, Prp 7.5)" [ "ab|bc"; "axb|byc"; "axyb|bztc|cd|dea" ];
  row "finite / unclassified" [ "abc|bcd"; "abcd|be"; "abc|bef" ];
  row "finite / NP-hard (repeated letter, Thm 6.1)" [ "aaaa"; "aa"; "abca|cab" ];
  row "finite / NP-hard (four-legged, Thm 5.5)" [ "axb|cxd" ];
  row "finite / NP-hard (gadgets, Prp 7.6 & 7.8)" [ "ab|bc|ca"; "abcd|be|ef"; "abcd|bef" ]

(* ------------------------------------------------------------------ *)
(* FIG2: local automata and RO-eNFAs for ax*b and ab|ad|cd.            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Printf.printf "Figure 2: RO-eNFAs (Lemma B.4) for the two example local languages\n";
  List.iter
    (fun s ->
      let a = lang s in
      let ro = Automata.Local.ro_enfa a in
      Printf.printf "\n%s: local=%b, RO-eNFA read-once=%b, recognizes L=%b\n" s
        (Automata.Local.is_local_language a)
        (Automata.Nfa.is_read_once ro) (Automata.Lang.equiv ro a);
      Format.printf "%a@." Automata.Nfa.pp ro)
    [ "ax*b"; "ab|ad|cd" ]

(* ------------------------------------------------------------------ *)
(* Gadget figures.                                                      *)
(* ------------------------------------------------------------------ *)

let show_gadget ?(verbose = false) (name, g, l) =
  let v = Gadgets.verify g l in
  Printf.printf "  %-32s %s" name (if v.Gadgets.ok then "VALID gadget" else "INVALID");
  (match v.Gadgets.odd_path_length with
  | Some len ->
      Printf.printf " | matches: %2d | condensed odd path length: %d\n"
        (Hypergraph.edge_count v.Gadgets.matches)
        len
  | None -> Printf.printf " (%s)\n" (Option.value ~default:"?" v.Gadgets.failure));
  if verbose then begin
    let c = Gadgets.complete g in
    Format.printf "%a@." Db.pp c.Gadgets.db';
    Format.printf "hypergraph of matches:@.%a@." Hypergraph.pp v.Gadgets.matches;
    Format.printf "condensed:@.%a@." Hypergraph.pp v.Gadgets.condensed
  end

let find_gadget name =
  List.find (fun (n, _, _) -> n = name) (Gadgets.all_paper_gadgets ())

let fig3 () =
  Printf.printf "Figure 3: gadgets for aa (Prop 4.1) and axb|cxd (Prop 4.12)\n";
  show_gadget ~verbose:true (find_gadget "aa (Fig 3a)");
  show_gadget (find_gadget "four-legged case 1 (axb|cxd)")

let fig4 () =
  Printf.printf "Figure 4: endpoint graphs (Definition 7.2)\n";
  List.iter
    (fun s ->
      let ws = Option.get (Automata.Lang.words (lang s)) in
      let letters, edges = Bcl.endpoint_graph ws in
      Printf.printf "  %-18s letters {%s}, endpoint edges {%s} -> chain=%b, BCL=%b\n" s
        (String.concat "" (List.map (String.make 1) letters))
        (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%c-%c" a b) edges))
        (Bcl.is_chain ws) (Bcl.is_bcl ws))
    [ "ab|bc"; "axyb|bztc|cd|dea"; "ab|bc|ca" ]

let fig5 () =
  Printf.printf "Figure 5: encoding a directed triangle with the aa gadget (Prop 4.1/4.11)\n";
  let _, g, l = find_gadget "aa (Fig 3a)" in
  let graph = Graphs.Ugraph.cycle 3 in
  let xi = Gadgets.encode g graph in
  Printf.printf "  triangle: 3 nodes, 3 edges; encoding: %d db-nodes, %d facts\n" (Db.nnodes xi)
    (Db.fact_count xi);
  let expected = Gadgets.expected_resilience g l graph in
  let v, _ = Exact.hitting_set xi l in
  Printf.printf "  vc(triangle)=%d; predicted RES = vc + m(l-1)/2 = %d; measured RES_set = %s\n"
    (Graphs.Ugraph.vertex_cover_number graph)
    expected (Cert.Value.to_string v)

let fig6 () =
  Printf.printf "Figure 6: full hypergraph of matches of the axb|cxd gadget completion\n";
  let _, g, l = find_gadget "four-legged case 1 (axb|cxd)" in
  let v = Gadgets.verify g l in
  Format.printf "%a@." Hypergraph.pp v.Gadgets.matches;
  Printf.printf "condensation trace (protecting F_in, F_out), as in Appendix C.6:\n";
  let c = Gadgets.complete g in
  let m = Graphdb.Eval.match_hypergraph c.Gadgets.db' l in
  let _, steps =
    Hypergraph.condense_trace ~protected:[ c.Gadgets.f_in; c.Gadgets.f_out ] m
  in
  List.iter (fun st -> Format.printf "  %a@." Hypergraph.pp_step st) steps;
  Printf.printf "resulting odd path (the Fig 3d analogue):\n";
  Format.printf "%a@." Hypergraph.pp v.Gadgets.condensed

let fig7_8 () =
  Printf.printf "Figures 7-8: generic four-legged gadgets (Theorem 5.5)\n";
  Printf.printf " case 1 (no infix of g'xb' in L):\n";
  List.iter
    (fun (s, x, al, be, ga, de) ->
      let l = lang s in
      let g = Gadgets.gadget_four_legged_case1 ~x ~alpha:al ~beta:be ~gamma:ga ~delta:de l in
      show_gadget (s, g, l))
    [
      ("axb|cxd", 'x', "a", "b", "c", "d");
      ("aexfb|cgxhd", 'x', "ae", "fb", "cg", "hd");
      ("abxcb|dxeb", 'x', "ab", "cb", "d", "eb");
    ];
  Printf.printf " case 2 (some infix of g'xb' in L, here c2xb):\n";
  let l = lang "axb|ccxd|cxb" in
  let g = Gadgets.gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"cc" ~delta:"d" l in
  show_gadget ("axb|ccxd|cxb", g, l)

let fig9_10 () =
  Printf.printf "Figures 9-10: Lemma E.4 gadgets for a-gamma-a and a-gamma-a-delta\n";
  List.iter
    (fun gamma ->
      let g, l = Gadgets.gadget_a_gamma_a ~gamma () in
      show_gadget (g.Gadgets.name, g, l))
    [ "b"; "bc" ];
  List.iter
    (fun (gamma, delta) ->
      let g, l = Gadgets.gadget_a_gamma_a_delta ~gamma ~delta () in
      show_gadget (g.Gadgets.name, g, l))
    [ ("b", "d"); ("bc", "d") ]

let fig_gadget figname gname =
  Printf.printf "%s\n" figname;
  show_gadget (find_gadget gname)

(* ------------------------------------------------------------------ *)
(* Value-level reproduction of the tractability theorems.              *)
(* ------------------------------------------------------------------ *)

let thm33_check () =
  Printf.printf "Theorem 3.3 check: RES_bag(ax*b) via RO-eNFA product MinCut = exact, and\n";
  Printf.printf "the MinCut correspondence of the introduction (a=sources, x=edges, b=sinks)\n";
  List.iter
    (fun seed ->
      let d = Graphdb.Generate.flow_grid ~width:3 ~depth:3 ~max_mult:3 ~seed () in
      let mc =
        match Local_solver.solve d (lang "ax*b") with Ok (v, _) -> v | Error e -> failwith e
      in
      let ex = fst (Exact.branch_and_bound d (lang "ax*b")) in
      Printf.printf "  grid(3x3, seed %d): mincut=%s exact=%s %s\n" seed (Cert.Value.to_string mc)
        (Cert.Value.to_string ex)
        (verdict (Cert.Value.equal mc ex) ~pass:"AGREE" ~fail:"DISAGREE!"))
    [ 1; 2; 3 ]

let prop75_check () =
  Printf.printf "Proposition 7.5 check: BCL MinCut = exact on layered ab|bc workloads\n";
  List.iter
    (fun seed ->
      let d = Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:2 ~max_mult:2 ~seed () in
      let bc = match Bcl.solve d (lang "ab|bc") with Ok (v, _) -> v | Error e -> failwith e in
      let ex = fst (Exact.branch_and_bound d (lang "ab|bc")) in
      Printf.printf "  layered(width 2, seed %d): bcl=%s exact=%s %s\n" seed (Cert.Value.to_string bc)
        (Cert.Value.to_string ex)
        (verdict (Cert.Value.equal bc ex) ~pass:"AGREE" ~fail:"DISAGREE!"))
    [ 1; 2; 3 ]

let prop77_check () =
  Printf.printf "Proposition 7.7 check: submodular solver = exact on abc|be workloads\n";
  List.iter
    (fun seed ->
      let d =
        Graphdb.Generate.random ~nnodes:5 ~nfacts:9 ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~max_mult:2
          ~seed ()
      in
      let sm =
        match Submod_solver.solve d (lang "abc|be") with Ok v -> v | Error e -> failwith e
      in
      let ex = fst (Exact.branch_and_bound d (lang "abc|be")) in
      Printf.printf "  random(seed %d): submodular=%s exact=%s %s\n" seed (Cert.Value.to_string sm)
        (Cert.Value.to_string ex)
        (verdict (Cert.Value.equal sm ex) ~pass:"AGREE" ~fail:"DISAGREE!"))
    [ 1; 2; 3 ]

let set_bag_check () =
  Printf.printf
    "Set vs bag semantics (Fig 1 caption: all results hold for both): RES_set = RES_bag on\n";
  Printf.printf "unit multiplicities; multiplicities act as costs otherwise\n";
  List.iter
    (fun s ->
      let d =
        Graphdb.Generate.random ~nnodes:4 ~nfacts:7 ~alphabet:[ 'a'; 'b'; 'x' ] ~max_mult:3
          ~seed:11 ()
      in
      let l = lang s in
      let bag = fst (Exact.branch_and_bound d l) in
      let set = fst (Exact.branch_and_bound (Db.with_unit_mults d) l) in
      Printf.printf "  %-8s RES_bag=%s RES_set=%s (set <= bag: %b)\n" s (Cert.Value.to_string bag)
        (Cert.Value.to_string set)
        (Cert.Value.compare set bag <= 0))
    [ "aa"; "ax*b"; "ab|bc" ]

let thm61_demo () =
  Printf.printf
    "Theorem 6.1 as an executable case analysis: for each reduced finite language with a\n";
  Printf.printf
    "repeated-letter word, replay the proof and emit a verified gadget (strategy shown).\n";
  List.iter
    (fun s ->
      match Hardness.thm61_gadget (lang s) with
      | Ok o ->
          Printf.printf "  %-12s %-42s mirrored=%-5b odd path %s\n" s o.Hardness.strategy
            o.Hardness.mirrored
            (match o.Hardness.verification.Gadgets.odd_path_length with
            | Some l -> string_of_int l
            | None -> "?")
      | Error e -> Printf.printf "  %-12s ERROR %s\n" s e)
    [ "aa"; "aaa"; "aaaa"; "aab"; "aba"; "abba"; "aba|bab"; "abca|cab"; "abab"; "abcbd";
      "bcaa"; "abcadbce" ]

let open_cases () =
  Printf.printf
    "Open cases of the paper (Section 8): bounded gadget search finds nothing, consistent\n";
  Printf.printf "with their open status (a negative search proves nothing).\n";
  List.iter
    (fun s ->
      let t0 = Obs.Clock.now () in
      match Gadget_search.certify_np_hard ~max_matches:5 (lang s) with
      | Some _ -> Printf.printf "  %-10s GADGET FOUND (!) -- NP-hard\n" s
      | None ->
          Printf.printf "  %-10s no gadget up to 5 matches (%.1fs)\n" s (Obs.Clock.now () -. t0))
    [ "abcd|be"; "abc|bcd"; "abc|bef" ]

let ablation_flow () =
  Printf.printf
    "Ablation: Dinic vs push-relabel inside the Theorem 3.3 solver (same product network).\n";
  Printf.printf "  %8s %10s %14s %20s\n" "grid" "|D| facts" "Dinic (s)" "push-relabel (s)";
  List.iter
    (fun w ->
      let d = Graphdb.Generate.flow_grid ~width:w ~depth:w ~max_mult:5 ~seed:3 () in
      let ro = Automata.Local.ro_enfa (lang "ax*b") in
      let net = Local_solver.build_network d ~ro in
      let (c1, t1) =
        time_it (fun () ->
            Flow.Network.min_cut net.Local_solver.net ~source:net.Local_solver.source
              ~sink:net.Local_solver.sink)
      in
      let (c2, t2) =
        time_it (fun () ->
            Flow.Push_relabel.min_cut net.Local_solver.net ~source:net.Local_solver.source
              ~sink:net.Local_solver.sink)
      in
      Printf.printf "  %8d %10d %14.4f %20.4f %s\n" w (Db.fact_count d) t1 t2
        (verdict
           (Flow.Network.cap_compare c1.Flow.Network.value c2.Flow.Network.value = 0)
           ~pass:"[agree]" ~fail:"[MISMATCH]"))
    [ 8; 16; 24 ]

let ablation_solvers () =
  Printf.printf
    "Ablation: the three exact solvers (witness B&B, hitting set, ILP [23]) agree; the LP\n";
  Printf.printf "relaxation lower-bounds them (integrality gap visible on gadget encodings).\n";
  Printf.printf "  %-22s %10s %8s %8s %8s %10s\n" "instance" "facts" "B&B" "hit-set" "ILP" "LP bound";
  let g_aa, l_aa = Gadgets.gadget_aa () in
  let instances =
    [
      ("aa / path encoding", Gadgets.encode g_aa (Graphs.Ugraph.path 3), l_aa);
      ("aa / triangle enc.", Gadgets.encode g_aa (Graphs.Ugraph.cycle 3), l_aa);
      ( "ab|bc|ca / random",
        Graphdb.Generate.random ~nnodes:5 ~nfacts:10 ~alphabet:[ 'a'; 'b'; 'c' ] ~seed:5 (),
        lang "ab|bc|ca" );
    ]
  in
  List.iter
    (fun (name, d, l) ->
      let bnb = fst (Exact.branch_and_bound d l) in
      let hs = fst (Exact.hitting_set d l) in
      let ilp = match Ilp_solver.solve d l with Ok (v, _) -> v | Error _ -> Cert.Value.Infinite in
      let lp = match Ilp_solver.lp_relaxation d l with Ok x -> x | Error _ -> nan in
      Printf.printf "  %-22s %10d %8s %8s %8s %10.2f %s\n" name (Db.fact_count d)
        (Cert.Value.to_string bnb) (Cert.Value.to_string hs) (Cert.Value.to_string ilp) lp
        (verdict (Cert.Value.equal bnb hs && Cert.Value.equal hs ilp) ~pass:"[agree]" ~fail:"[MISMATCH]"))
    instances

(* ------------------------------------------------------------------ *)
(* Scaling series (wall-clock, printed as paper-style series).         *)
(* ------------------------------------------------------------------ *)

let scaling_local () =
  Printf.printf
    "Theorem 3.3 scaling: RES_bag(ax*b) on flow grids; time grows near-linearly in |D|\n";
  Printf.printf "  %8s %8s %10s %12s\n" "width" "depth" "|D| facts" "time (s)";
  List.iter
    (fun (w, dep) ->
      let d = Graphdb.Generate.flow_grid ~width:w ~depth:dep ~max_mult:5 ~seed:42 () in
      let (v, _), t = time_it (fun () -> Local_solver.solve d (lang "ax*b") |> Result.get_ok) in
      Printf.printf "  %8d %8d %10d %12.4f (RES=%s)\n" w dep (Db.fact_count d) t
        (Cert.Value.to_string v))
    [ (4, 4); (8, 8); (16, 16); (24, 24); (32, 32) ]

let scaling_bcl () =
  Printf.printf "Proposition 7.5 scaling: RES_bag(ab|bc) on layered databases\n";
  Printf.printf "  %8s %10s %12s\n" "width" "|D| facts" "time (s)";
  List.iter
    (fun w ->
      let d =
        Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~density:0.4 ~seed:7 ()
      in
      let (v, _), t = time_it (fun () -> Bcl.solve d (lang "ab|bc") |> Result.get_ok) in
      Printf.printf "  %8d %10d %12.4f (RES=%s)\n" w (Db.fact_count d) t (Cert.Value.to_string v))
    [ 4; 8; 12; 16 ]

let scaling_hardness () =
  Printf.printf
    "Hardness shape: exact solving of RES_set(aa) on gadget encodings of growing paths\n";
  Printf.printf "(NP-hard, Thm 6.1) vs the Thm 3.3 MinCut solver for the local language abc\n";
  Printf.printf "on the same databases: the exact solver's time explodes, MinCut stays flat.\n";
  Printf.printf "  %8s %10s %16s %16s\n" "path n" "|D| facts" "exact aa (s)" "mincut abc (s)";
  let g, l = Gadgets.gadget_aa () in
  List.iter
    (fun n ->
      let xi = Gadgets.encode g (Graphs.Ugraph.path n) in
      let (v1, _), t1 = time_it (fun () -> Exact.hitting_set xi l) in
      let _, t2 = time_it (fun () -> Local_solver.solve xi (lang "abc") |> Result.get_ok) in
      Printf.printf "  %8d %10d %16.4f %16.4f (RES_aa=%s)\n" n (Db.fact_count xi) t1 t2
        (Cert.Value.to_string v1))
    [ 3; 5; 7; 9 ]

let ablation_chain_extraction () =
  Printf.printf
    "Ablation: Lemma F.2 trie extraction vs determinization for chain-language word lists\n";
  Printf.printf "(the former gives Prop 7.5 its combined-complexity bound).\n";
  (* build a large BCL over many letters: a1 b | b c1 | ... *)
  let letters = "abcdefghijklmnopqrstuvwxyz" in
  let k = 24 in
  let words = List.init k (fun i -> Printf.sprintf "%c%c" letters.[i] letters.[i + 1]) in
  let a = Automata.Nfa.of_words words in
  let (r1, t1) = time_it (fun () -> Bcl.words_of_chain_nfa a) in
  let (r2, t2) = time_it (fun () -> Automata.Lang.words a) in
  let ok =
    match (r1, r2) with
    | Ok ws1, Some ws2 -> List.sort compare ws1 = List.sort compare ws2
    | _ -> false
  in
  Printf.printf "  %d words over %d letters: Lemma F.2 %.4fs, determinization %.4fs (%s)\n" k
    (k + 1) t1 t2
    (verdict ok ~pass:"same word list" ~fail:"MISMATCH");
  ignore (r1, r2)

let scaling_submodular () =
  Printf.printf
    "Proposition 7.7 scaling: RES_bag(abc|be) via submodular minimization on growing DBs\n";
  Printf.printf "  %8s %10s %12s\n" "nfacts" "|ground|" "time (s)";
  List.iter
    (fun nfacts ->
      let d =
        Graphdb.Generate.random ~nnodes:(2 + (nfacts / 3)) ~nfacts
          ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~max_mult:2 ~seed:17 ()
      in
      match Submod_solver.recognize [ "abc"; "be" ] with
      | None -> ()
      | Some shape ->
          let ground, _ = Submod_solver.oracle d shape in
          let (v, t) =
            time_it (fun () -> Submod_solver.solve d (lang "abc|be") |> Result.get_ok)
          in
          Printf.printf "  %8d %10d %12.4f (RES=%s)\n" nfacts (List.length ground) t
            (Cert.Value.to_string v))
    [ 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* ABLATION: anytime degradation chain — answer quality vs work budget. *)
(* ------------------------------------------------------------------ *)

let ablation_anytime () =
  Printf.printf
    "Anytime degradation on the K4 vertex-cover encoding of `aa` (exact resilience 15):\n\
     the budgeted chain (B&B slice -> ILP slice -> LP + greedy bounds) vs the step budget.\n\n";
  let pre, l = Gadgets.gadget_aa () in
  let d = Gadgets.encode pre (Graphs.Ugraph.complete 4) in
  Printf.printf "  %10s  %-28s %s\n" "steps" "outcome" "time";
  List.iter
    (fun steps ->
      let (outcome, spent), dt =
        time_it (fun () ->
            Faults.with_plan Faults.Off (fun () ->
                let b = Budget.create ~steps () in
                let outcome = Solver.solve_bounded ~budget:b d l in
                (outcome, Budget.spent b)))
      in
      let show =
        match outcome with
        | Solver.Exact r ->
            Format.asprintf "exact %a via %s" Cert.Value.pp r.Solver.value
              (Solver.algorithm_name r.Solver.algorithm)
        | Solver.Bounded { lower; upper; _ } ->
            Format.asprintf "%a <= RES <= %a" Cert.Value.pp lower Cert.Value.pp upper
      in
      Printf.printf "  %10d  %-28s %.3fs (%d ticks spent)\n%!" steps show dt spent.Budget.steps)
    [ 100; 500; 1_000; 2_000; 5_000; 20_000; 100_000 ]

let () =
  section "fig1" "FIG1: classification table" fig1;
  section "fig2" "FIG2: example automata" fig2;
  section "fig3" "FIG3: gadgets for aa and axb|cxd" fig3;
  section "fig4" "FIG4: endpoint graphs" fig4;
  section "fig5" "FIG5: vertex-cover encoding" fig5;
  section "fig6" "FIG6: hypergraph of matches for axb|cxd" fig6;
  section "fig7_8" "FIG7-8: four-legged gadgets (Thm 5.5)" fig7_8;
  section "fig9_10" "FIG9-10: repeated-letter gadgets (Lemma E.4)" fig9_10;
  section "fig11" "FIG11: aba|bab gadget (Claim E.8)" (fun () ->
      fig_gadget "Figure 11" "aba|bab (Fig 11)");
  section "fig12" "FIG12: aaa gadget (Claim E.9)" (fun () ->
      fig_gadget "Figure 12" "aaa (Fig 12)");
  section "fig13" "FIG13: aab gadget (Claim E.12)" (fun () ->
      fig_gadget "Figure 13" "aab (Fig 13)");
  section "fig14" "FIG14: ax(eta)ya|yax gadgets (Claim E.11)" (fun () ->
      fig_gadget "Figure 14 (eta = empty)" "axya|yax (Fig 14)";
      fig_gadget "Figure 14 (eta = c)" "axcya|yax (Fig 14)");
  section "fig15" "FIG15: ab|bc|ca gadget (Prop 7.6)" (fun () ->
      fig_gadget "Figure 15" "ab|bc|ca (Fig 15)");
  section "fig16_17" "FIG16-17: abcd|be|ef and abcd|bef gadgets (Prop 7.8)" (fun () ->
      fig_gadget "Figure 16" "abcd|be|ef (Fig 16)";
      fig_gadget "Figure 17" "abcd|bef (Fig 17)");
  section "thm33" "THM3.3: MinCut solver value checks" thm33_check;
  section "prop75" "PROP7.5: BCL solver value checks" prop75_check;
  section "prop77" "PROP7.7: submodular solver value checks" prop77_check;
  section "set_bag" "SET=BAG: semantics coherence" set_bag_check;
  section "thm61" "THM6.1: executable case analysis" thm61_demo;
  section "open_cases" "OPEN CASES: bounded gadget search" open_cases;
  section "ablation_flow" "ABLATION: Dinic vs push-relabel" ablation_flow;
  section "ablation_solvers" "ABLATION: exact solvers and the LP bound" ablation_solvers;
  section "ablation_chain" "ABLATION: Lemma F.2 extraction vs determinization" ablation_chain_extraction;
  section "ablation_anytime" "ABLATION: anytime bounds vs work budget" ablation_anytime;
  section "scaling_submodular" "SCALING: Proposition 7.7" scaling_submodular;
  section "scaling_local" "SCALING: Theorem 3.3" scaling_local;
  section "scaling_bcl" "SCALING: Proposition 7.5" scaling_bcl;
  section "scaling_hard" "SCALING: hardness shape" scaling_hardness;
  if !failed_checks > 0 then begin
    Printf.printf "\n%d value check(s) failed\n" !failed_checks;
    exit 1
  end
