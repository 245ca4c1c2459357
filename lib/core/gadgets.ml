module Db = Graphdb.Db

type pre_gadget = {
  name : string;
  db : Db.t;
  t_in : int;
  t_out : int;
  label : char;
}

(* ---- Construction helper: named nodes and word-labeled chains ---- *)

(* A gadget spec is a list of chains (u, word, v): the word spelled by fresh
   intermediate nodes from u to v. Node names "t_in" / "t_out" are the
   distinguished elements. *)
let build ~name ~label chains =
  let b = Db.Builder.create () in
  let t_in = Db.Builder.node b "t_in" in
  let t_out = Db.Builder.node b "t_out" in
  List.iter (fun (u, w, v) -> Db.Builder.add_word_path b u w v) chains;
  { name; db = Db.Builder.build b; t_in; t_out; label }

let well_formed g =
  if g.t_in = g.t_out then Error "t_in = t_out"
  else if
    List.exists
      (fun (_, (f : Db.fact)) -> f.Db.dst = g.t_in || f.Db.dst = g.t_out)
      (Db.facts g.db)
  then Error "t_in or t_out occurs as the head of a fact"
  else Ok ()

type completion = { db' : Db.t; f_in : int; f_out : int }

let complete g =
  let n = Db.nnodes g.db in
  let s_in = n and s_out = n + 1 in
  let facts =
    (s_in, g.label, g.t_in, 1)
    :: (s_out, g.label, g.t_out, 1)
    :: List.map (fun (id, (f : Db.fact)) -> (f.Db.src, f.Db.label, f.Db.dst, Db.mult g.db id))
         (Db.facts g.db)
  in
  let db' = Db.make_bag ~nnodes:(n + 2) ~facts in
  let find src dst =
    match
      List.find_opt
        (fun (_, (f : Db.fact)) -> f.Db.src = src && f.Db.label = g.label && f.Db.dst = dst)
        (Db.facts db')
    with
    | Some (id, _) -> id
    | None ->
        Invariant.internal_error "Gadgets: embedded fact %d --%c--> %d missing from product db"
          src g.label dst
  in
  { db'; f_in = find s_in g.t_in; f_out = find s_out g.t_out }

type verification = {
  ok : bool;
  matches : Hypergraph.t;
  condensed : Hypergraph.t;
  odd_path_length : int option;
  failure : string option;
}

let verify g lang =
  match well_formed g with
  | Error e ->
      let empty = Hypergraph.make ~vertices:[] ~edges:[] in
      { ok = false; matches = empty; condensed = empty; odd_path_length = None; failure = Some e }
  | Ok () ->
      let { db'; f_in; f_out } = complete g in
      let matches = Graphdb.Eval.match_hypergraph db' lang in
      let condensed = Hypergraph.condense ~protected:[ f_in; f_out ] matches in
      let ok = Hypergraph.is_odd_path condensed ~src:f_in ~dst:f_out in
      let odd_path_length =
        match Hypergraph.path_endpoints_length condensed with
        | Some (_, _, len) when ok -> Some len
        | _ -> None
      in
      {
        ok;
        matches;
        condensed;
        odd_path_length;
        failure = (if ok then None else Some "condensation is not an odd F_in--F_out path");
      }

let encode g (graph : Graphs.Ugraph.t) =
  let b = Db.Builder.create () in
  let node_t u = Printf.sprintf "t_%d" u in
  let node_s u = Printf.sprintf "s_%d" u in
  (* Step 1: one endpoint fact per vertex of the graph. *)
  for u = 0 to Graphs.Ugraph.n graph - 1 do
    Db.Builder.add b (node_s u) g.label (node_t u)
  done;
  (* Step 2: one fresh copy of the pre-gadget per edge, with t_in ↦ t_u and
     t_out ↦ t_v. *)
  List.iteri
    (fun i (u, v) ->
      let rename w =
        if w = g.t_in then node_t u
        else if w = g.t_out then node_t v
        else Printf.sprintf "g%d_%d" i w
      in
      List.iter
        (fun (id, (f : Db.fact)) ->
          Db.Builder.add b ~mult:(Db.mult g.db id) (rename f.Db.src) f.Db.label
            (rename f.Db.dst))
        (Db.facts g.db))
    (Graphs.Ugraph.edges graph);
  Db.Builder.build b

let expected_resilience g lang graph =
  match (verify g lang).odd_path_length with
  | None -> invalid_arg "Gadgets.expected_resilience: gadget does not verify"
  | Some l ->
      let k = Graphs.Ugraph.vertex_cover_number graph in
      let m = Graphs.Ugraph.edge_count graph in
      k + (m * (l - 1) / 2)

let reduction_check g lang graph =
  let xi = encode g graph in
  let value, _ = Exact.hitting_set xi lang in
  Cert.Value.equal value (Cert.Value.Finite (expected_resilience g lang graph))

(* ---- Concrete gadgets from the paper ---- *)

let lang s = Automata.Lang.of_string s

(* Figure 3a: the 4-fact pre-gadget for aa (Proposition 4.1). *)
let gadget_aa () =
  ( build ~name:"aa (Fig 3a)" ~label:'a'
      [ ("t_in", "a", "1"); ("1", "a", "2"); ("2", "a", "3"); ("t_out", "a", "2") ],
    lang "aa" )

(* Figure 12 (Claim E.9): same database, language aaa. *)
let gadget_aaa () =
  ( build ~name:"aaa (Fig 12)" ~label:'a'
      [ ("t_in", "a", "1"); ("1", "a", "2"); ("2", "a", "3"); ("t_out", "a", "2") ],
    lang "aaa" )

(* Figure 13 (Claim E.12): language aab with a ≠ b. *)
let gadget_aab () =
  ( build ~name:"aab (Fig 13)" ~label:'a'
      [
        ("t_in", "a", "1");
        ("1", "b", "2");
        ("3", "a", "1");
        ("t_out", "a", "3");
        ("3", "b", "4");
      ],
    lang "aab" )

(* Figure 11 (Claim E.8): languages containing aba and bab. *)
let gadget_aba_bab () =
  ( build ~name:"aba|bab (Fig 11)" ~label:'a'
      [
        ("t_in", "b", "1");
        ("5", "b", "1");
        ("1", "a", "2");
        ("2", "b", "3");
        ("3", "a", "4");
        ("7", "a", "4");
        ("4", "b", "6");
        ("t_out", "b", "7");
        ("8", "b", "7");
      ],
    lang "aba|bab" )

(* Figure 9 (Lemma E.4 with δ = ε): language {aγa}, no infix of γaγ in L.
   For γ = ε this degenerates to the aa gadget of Figure 3a. *)
let gadget_a_gamma_a ~gamma () =
  let l = lang (Printf.sprintf "a%sa" gamma) in
  if gamma = "" then (fst (gadget_aa ()), l)
  else
    ( build ~name:(Printf.sprintf "a%sa (Fig 9)" gamma) ~label:'a'
        [
          ("t_in", gamma, "p1");
          ("p1", "a", "q1");
          ("q1", gamma, "p2");
          ("p2", "a", "q2");
          ("t_out", gamma, "p2");
        ],
      l )

(* Figure 10 (Lemma E.4 with δ ≠ ε): language {aγaδ}. For γ = ε the shape
   degenerates and the Figure 13 layout (aab generalized with a δ-chain)
   applies instead. *)
let gadget_a_gamma_a_delta ~gamma ~delta () =
  let l = lang (Printf.sprintf "a%sa%s" gamma delta) in
  let name = Printf.sprintf "a%sa%s (Fig 10)" gamma delta in
  if delta = "" then (fst (gadget_a_gamma_a ~gamma ()), l)
  else if gamma = "" then
    ( build ~name ~label:'a'
        [
          ("t_in", "a", "1");
          ("1", delta, "2");
          ("3", "a", "1");
          ("t_out", "a", "3");
          ("3", delta, "4");
        ],
      l )
  else
    ( build ~name ~label:'a'
        [
          ("t_in", gamma, "p1");
          ("p1", "a", "q1");
          ("q1", delta, "d1");
          ("q1", gamma, "p2");
          ("p2", "a", "q2");
          ("q2", delta, "d2");
          ("t_out", gamma, "p2");
        ],
      l )

(* Builder that tolerates ε-labeled chains by unifying node names first. *)
let build_unified ~name ~label segments =
  (* Union-find on node names for ε segments. *)
  let parent = Hashtbl.create 16 in
  let rec find n =
    match Hashtbl.find_opt parent n with
    | None -> n
    | Some p ->
        let r = find p in
        Hashtbl.replace parent n r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      (* Keep the distinguished names as representatives. *)
      if rb = "t_in" || rb = "t_out" then Hashtbl.replace parent ra rb
      else Hashtbl.replace parent rb ra
  in
  List.iter (fun (u, w, v) -> if w = "" then union u v) segments;
  let chains =
    List.filter_map (fun (u, w, v) -> if w = "" then None else Some (find u, w, find v)) segments
  in
  build ~name ~label (List.sort_uniq compare chains)

(* The generic case-1 gadget of Theorem 5.5 (Figure 7), as a 9-match chain
   A A C C C C C A A with shares b, x, d, c, d, c, x, b. Writing
   α' = a·α, β' = β·b, γ' = c·γ, δ' = δ·d, the two word shapes are
   α'xβ' = a α x β b and γ'xδ' = c γ x δ d; the chain was designed and is
   verified programmatically (cf. the test suite), following the paper's own
   methodology for Figures 7–8. *)
let gadget_four_legged_case1 ~x ~alpha ~beta ~gamma ~delta _lang_nfa =
  if alpha = "" || beta = "" || gamma = "" || delta = "" then
    invalid_arg "gadget_four_legged_case1: legs must be non-empty";
  let a = String.make 1 alpha.[0] in
  let al = String.sub alpha 1 (String.length alpha - 1) in
  let b = String.make 1 beta.[String.length beta - 1] in
  let be = String.sub beta 0 (String.length beta - 1) in
  let c = String.make 1 gamma.[0] in
  let ga = String.sub gamma 1 (String.length gamma - 1) in
  let d = String.make 1 delta.[String.length delta - 1] in
  let de = String.sub delta 0 (String.length delta - 1) in
  let xs = String.make 1 x in
  build_unified
    ~name:
      (Printf.sprintf "four-legged case 1 (%sx%s|%sx%s)" alpha beta gamma delta)
    ~label:a.[0]
    [
      (* M1: F_in · α-chain · x · β-chain · b-fact B1 *)
      ("t_in", al, "e1"); ("e1", xs, "f1"); ("f1", be, "g1"); ("g1", b, "h1");
      (* M2: a-fact A2 · α · X2 · β · B1 (share B1) *)
      ("p2", a, "p2h"); ("p2h", al, "e2"); ("e2", xs, "f2"); ("f2", be, "g1");
      (* M3: c-fact C3 · γ ending at e2 · X2 · δ · D3 (share X2) *)
      ("r3", c, "r3h"); ("r3h", ga, "e2"); ("f2", de, "g3"); ("g3", d, "h3");
      (* M4: C4 · γ · X4 · δ converging at g3 · D3 (share D3) *)
      ("r4", c, "r4h"); ("r4h", ga, "e4"); ("e4", xs, "f4"); ("f4", de, "g3");
      (* M5: C4 · γ (fresh) · X5 · δ · D5 (share C4) *)
      ("r4h", ga, "e5"); ("e5", xs, "f5"); ("f5", de, "g5"); ("g5", d, "h5");
      (* M6: C6 · γ · X6 · δ converging at g5 · D5 (share D5) *)
      ("r6", c, "r6h"); ("r6h", ga, "e6"); ("e6", xs, "f6"); ("f6", de, "g5");
      (* M7: C6 · γ (fresh) · X7 · δ · D7 (share C6) *)
      ("r6h", ga, "e7"); ("e7", xs, "f7"); ("f7", de, "g7"); ("g7", d, "h7");
      (* M8: A8 · α ending at e7 · X7 · β · B8 (share X7) *)
      ("p8", a, "p8h"); ("p8h", al, "e7"); ("f7", be, "g8"); ("g8", b, "h8");
      (* M9: F_out · α-chain · X9 · β converging at g8 · B8 (share B8) *)
      ("t_out", al, "e9"); ("e9", xs, "f9"); ("f9", be, "g8");
    ]

(* Case 2 of Theorem 5.5 (Figure 8): some infix of γ'xβ' is in L; following
   the proof in Appendix D.1, the relevant extra match shape is c₂xb with c₂
   the last letter of γ' and b the first letter of β'. Our gadget is a
   7-match chain of c₂xb- and γ'xδ'-walks (no a-fact appears, so α'xβ' never
   matches), with shares b, c₂, d, γ₂-chain, c₂, b; it requires |γ'| ≥ 2
   (for |γ'| = 1 a bespoke gadget is found by search, cf. the test suite)
   and, like the paper's own construction, is verified programmatically. *)
(* |γ'| = 1 sub-case with single-letter legs (e.g. axb|cxd|cxb): found by
   {!Gadget_search} (chain axb cxb cxd cxd cxd axb axb) and verified. *)
let gadget_case2_single_letters ~x ~a ~b ~c ~d =
  let s ch = String.make 1 ch in
  build
    ~name:(Printf.sprintf "four-legged case 2 short (%cx%c|%cx%c|%cx%c)" a b c d c b)
    ~label:a
    [
      ("t_in", s x, "n2"); ("n2", s b, "n3");
      ("n4", s c, "n5"); ("n5", s x, "n2");
      ("n5", s x, "n6"); ("n6", s d, "n7");
      ("n8", s c, "n9"); ("n9", s x, "n6");
      ("n9", s x, "n11"); ("n10", s a, "n9");
      ("n11", s b, "n12"); ("n11", s d, "n13");
      ("t_out", s x, "n11");
    ]

let gadget_four_legged_case2 ~x ~alpha ~beta ~gamma ~delta _lang_nfa =
  if alpha = "" || beta = "" || gamma = "" || delta = "" then
    invalid_arg "gadget_four_legged_case2: legs must be non-empty";
  if String.length gamma < 2 then
    if String.length alpha = 1 && String.length beta = 1 && String.length delta = 1 then
      gadget_case2_single_letters ~x ~a:alpha.[0] ~b:beta.[0] ~c:gamma.[0] ~d:delta.[0]
    else
      invalid_arg
        "gadget_four_legged_case2: |\xce\xb3'| = 1 with multi-letter legs is not covered by the \
         generic construction; try Gadget_search.certify_np_hard"
  else begin
  let c2 = String.make 1 gamma.[String.length gamma - 1] in
  let g2 = String.sub gamma 0 (String.length gamma - 1) in
  let b = String.make 1 beta.[0] in
  let d = String.make 1 delta.[String.length delta - 1] in
  let de = String.sub delta 0 (String.length delta - 1) in
  let xs = String.make 1 x in
  build_unified
    ~name:(Printf.sprintf "four-legged case 2 (%sx%s|%sx%s)" alpha beta gamma delta)
    ~label:c2.[0]
    [
      (* M1 (c₂xb): F_in · x · b-fact B1 *)
      ("t_in", xs, "n1"); ("n1", b, "h1");
      (* M2 (c₂xb): C2 · X2 · B1 (share B1) *)
      ("r2", c2, "q2"); ("q2", xs, "n1");
      (* M3 (γ'xδ'): γ₂-chain into r2 · C2 · X3 · δ-chain · D3 (share C2) *)
      ("s3", g2, "r2"); ("q2", xs, "n3"); ("n3", de, "g3"); ("g3", d, "h3");
      (* M4 (γ'xδ'): γ₂-chain · C4 · X4 · δ-chain converging at g3 · D3 *)
      ("s4", g2, "r4"); ("r4", c2, "q4"); ("q4", xs, "n4"); ("n4", de, "g3");
      (* M5 (γ'xδ'): same γ₂-chain · C5 · X5 · δ · D5 (share the γ₂-chain) *)
      ("r4", c2, "q5"); ("q5", xs, "n5"); ("n5", de, "g5"); ("g5", d, "h5");
      (* M6 (c₂xb): C5 · X6 · B6 (share C5) *)
      ("q5", xs, "n6"); ("n6", b, "h6");
      (* M7 (c₂xb): F_out · X7 · B6 (share B6) *)
      ("t_out", xs, "n6");
    ]
  end

let gadget_axb_cxd () =
  let l = lang "axb|cxd" in
  (gadget_four_legged_case1 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"c" ~delta:"d" l, l)
(* Figure 14 (Claim E.11): languages {axηya, yax} with x, y ∉ {a}. The η = ε
   skeleton was found by exhaustive chain search over seven axηya-matches;
   for η ≠ ε an η-chain is inserted at each x-head/y-tail junction. Verified
   programmatically like the paper's own gadget. The letters a, x, y are
   parameters (default a, x, y). *)
let gadget_axeya_yax_letters ~a ~x ~y ~eta () =
  let sa = String.make 1 a and sx = String.make 1 x and sy = String.make 1 y in
  let l = lang (Printf.sprintf "%s%s%s%s%s|%s%s%s" sa sx eta sy sa sy sa sx) in
  ( build_unified
      ~name:(Printf.sprintf "%sx%sy%s-family %s%s%s%s%s|%s%s%s (Fig 14)" sa sa sa sa sx eta sy sa sy sa sx)
      ~label:a
      [
        ("t_in", sx, "n5"); ("n5", eta, "n5e"); ("n5e", sy, "n3"); ("n3", sa, "n4");
        ("n9", sx, "n2"); ("n2", eta, "n2e"); ("n2e", sy, "n3"); ("n12", sa, "n9");
        ("n7", sx, "n8"); ("n8", eta, "n8e"); ("n8e", sy, "n12"); ("n6", sa, "n7");
        ("n11", sx, "n8"); ("n10", sa, "n11");
        ("n12", sa, "n13"); ("n13", sx, "n14"); ("n14", eta, "n14e");
        ("n14e", sy, "n15"); ("n15", sa, "n16"); ("n15", sa, "n17");
        ("t_out", sx, "n18"); ("n18", eta, "n18e"); ("n18e", sy, "n19"); ("n19", sa, "n13");
      ],
    l )

let gadget_axeya_yax ~eta () =
  let g, l = gadget_axeya_yax_letters ~a:'a' ~x:'x' ~y:'y' ~eta () in
  ({ g with name = Printf.sprintf "ax%sya|yax (Fig 14)" eta }, l)

(* Figure 15 (Proposition 7.6): found by exhaustive chain search (k = 7
   matches: ab bc ca ab bc bc ab) and verified programmatically. *)
let gadget_ab_bc_ca () =
  ( build ~name:"ab|bc|ca (Fig 15)" ~label:'a'
      [
        ("t_in", "b", "u2");
        ("u2", "c", "u3");
        ("u3", "a", "u4");
        ("u4", "b", "u5");
        ("t_out", "b", "u5");
        ("u5", "c", "u6");
      ],
    lang "ab|bc|ca" )

(* Figure 16 (Proposition 7.8, abcd|be|ef): chain search, k = 7. *)
let gadget_abcd_be_ef () =
  ( build ~name:"abcd|be|ef (Fig 16)" ~label:'a'
      [
        ("t_in", "b", "2");
        ("t_out", "b", "11");
        ("2", "c", "3");
        ("2", "e", "4");
        ("3", "d", "5");
        ("4", "f", "6");
        ("7", "a", "8");
        ("8", "b", "9");
        ("9", "c", "10");
        ("9", "e", "4");
        ("10", "d", "12");
        ("11", "c", "10");
      ],
    lang "abcd|be|ef" )

(* Figure 17 (Proposition 7.8, abcd|bef): chain search, k = 5. *)
let gadget_abcd_bef () =
  ( build ~name:"abcd|bef (Fig 17)" ~label:'a'
      [
        ("t_in", "b", "2");
        ("t_out", "b", "11");
        ("2", "c", "3");
        ("2", "e", "4");
        ("3", "d", "6");
        ("4", "f", "5");
        ("7", "a", "8");
        ("8", "b", "9");
        ("9", "c", "10");
        ("9", "e", "4");
        ("10", "d", "12");
        ("11", "c", "10");
      ],
    lang "abcd|bef" )

let all_paper_gadgets () =
  let pairs =
    [
      gadget_aa ();
      gadget_aaa ();
      gadget_aab ();
      gadget_aba_bab ();
      gadget_a_gamma_a ~gamma:"bc" ();
      gadget_a_gamma_a_delta ~gamma:"b" ~delta:"d" ();
      gadget_axb_cxd ();
      (let l = lang "aexfb|cgxhd" in
       (gadget_four_legged_case1 ~x:'x' ~alpha:"ae" ~beta:"fb" ~gamma:"cg" ~delta:"hd" l, l));
      (let l = lang "axb|ccxd|cxb" in
       (gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"cc" ~delta:"d" l, l));
      (let l = lang "axb|cxd|cxb" in
       (gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"c" ~delta:"d" l, l));
      gadget_axeya_yax ~eta:"" ();
      gadget_axeya_yax ~eta:"c" ();
      gadget_ab_bc_ca ();
      gadget_abcd_be_ef ();
      gadget_abcd_bef ();
    ]
  in
  List.map (fun (g, l) -> (g.name, g, l)) pairs
