(* Tests for graph databases and RPQ evaluation. *)
open Graphdb

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let triangle_db () =
  (* 0 -a-> 1 -b-> 2 -c-> 0 *)
  Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (1, 'b', 2); (2, 'c', 0) ]

let test_db_basics () =
  let d = triangle_db () in
  check_int "nodes" 3 (Db.nnodes d);
  check_int "facts" 3 (Db.fact_count d);
  check_int "live" 3 (Db.live_count d);
  check_int "total mult" 3 (Db.total_mult d);
  check "alphabet" true (Automata.Cset.equal (Db.alphabet d) (Automata.Cset.of_string "abc"));
  check_int "out edges of 0" 1 (List.length (Db.out_edges d 0))

let test_db_bag () =
  let d = Db.make_bag ~nnodes:2 ~facts:[ (0, 'a', 1, 3); (0, 'a', 1, 2); (0, 'b', 1, 1) ] in
  check_int "merged facts" 2 (Db.fact_count d);
  check_int "merged mult" 6 (Db.total_mult d);
  let d1 = Db.with_unit_mults d in
  check_int "unit mults" 2 (Db.total_mult d1);
  check "negative mult rejected" true
    (try
       ignore (Db.make_bag ~nnodes:1 ~facts:[ (0, 'a', 0, 0) ]);
       false
     with Invalid_argument _ -> true)

let test_restrict () =
  let d = triangle_db () in
  let d' = Db.remove d [ 0 ] in
  check_int "one dead" 2 (Db.live_count d');
  check "dead" false (Db.is_live d' 0);
  check "ids stable" true (Db.fact d' 1 = Db.fact d 1);
  check_int "original untouched" 3 (Db.live_count d)

let test_acyclic () =
  check "triangle cyclic" false (Db.is_acyclic (triangle_db ()));
  check "acyclic after removal" true (Db.is_acyclic (Db.remove (triangle_db ()) [ 2 ]));
  check "dag" true
    (Db.is_acyclic (Db.make ~nnodes:3 ~facts:[ (0, 'a', 1); (0, 'a', 2); (1, 'b', 2) ]))

let test_reverse () =
  let d = Db.reverse (triangle_db ()) in
  check "reversed fact" true ((Db.fact d 0).Db.src = 1 && (Db.fact d 0).Db.dst = 0)

let test_builder () =
  let b = Db.Builder.create () in
  Db.Builder.add b "u" 'a' "v";
  Db.Builder.add b ~mult:4 "v" 'b' "w";
  Db.Builder.add_word_path b "u" "xyz" "w";
  let d = Db.Builder.build b in
  check_int "nodes" 5 (Db.nnodes d);
  check_int "facts" 5 (Db.fact_count d);
  check_int "mult" 8 (Db.total_mult d);
  check "path exists" true (Eval.satisfies d (lang "xyz"))

let test_satisfies () =
  let d = triangle_db () in
  List.iter (fun s -> check ("sat " ^ s) true (Eval.satisfies d (lang s)))
    [ "ab"; "bc"; "ca"; "abc"; "abcabc"; "a|zz"; "(abc)*ab" ];
  List.iter (fun s -> check ("unsat " ^ s) false (Eval.satisfies d (lang s)))
    [ "ba"; "aa"; "ac"; "acb|zz" ];
  (* ε ∈ L: always satisfied, even by the empty database *)
  check "eps always" true (Eval.satisfies (Db.make ~nnodes:0 ~facts:[]) (lang "~|ab"));
  check "empty lang" false (Eval.satisfies d (lang "!"))

let test_walks_repeat_facts () =
  (* A walk may loop: abcabc around the triangle reuses all three facts. *)
  let d = triangle_db () in
  match Eval.shortest_witness d (lang "abcab") with
  | Some w ->
      check_int "walk length" 5 (List.length w);
      check_int "distinct facts" 3 (List.length (List.sort_uniq compare w))
  | None -> Alcotest.fail "witness expected"

let test_shortest_witness () =
  let d =
    Db.make ~nnodes:5 ~facts:[ (0, 'a', 1); (1, 'b', 2); (0, 'a', 3); (3, 'x', 4); (4, 'b', 2) ]
  in
  (match Eval.shortest_witness d (lang "ab|axb") with
  | Some w -> check_int "shortest is ab" 2 (List.length w)
  | None -> Alcotest.fail "witness expected");
  check "eps witness" true (Eval.shortest_witness d (lang "~") = Some []);
  check "no witness" true (Eval.shortest_witness d (lang "zz") = None)

let test_witness_is_match () =
  (* The witness walk's labels must spell a word of L, in order. *)
  let d = Generate.random_acyclic ~nnodes:8 ~nfacts:18 ~alphabet:[ 'a'; 'b'; 'x' ] ~seed:7 () in
  match Eval.shortest_witness d (lang "ax*b") with
  | None -> check "maybe unsat" true (not (Eval.satisfies d (lang "ax*b")))
  | Some w ->
      let word = String.init (List.length w) (fun i -> (Db.fact d (List.nth w i)).Db.label) in
      check "labels form word" true (Automata.Nfa.accepts (lang "ax*b") word);
      (* consecutive facts must be adjacent *)
      let rec adj = function
        | f1 :: (f2 :: _ as rest) ->
            (Db.fact d f1).Db.dst = (Db.fact d f2).Db.src && adj rest
        | _ -> true
      in
      check "adjacent" true (adj w)

let test_matches () =
  let d = Db.make ~nnodes:4 ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3) ] in
  let ms = Eval.all_matches d (lang "aa") in
  check_int "two aa matches" 2 (List.length ms);
  let h = Eval.match_hypergraph d (lang "aa") in
  check_int "hyperedges" 2 (Hypergraph.edge_count h);
  check_int "vertices" 3 (Hypergraph.vertex_count h);
  (* cyclic db with infinite language is rejected *)
  check "cyclic+infinite rejected" true
    (try
       ignore (Eval.all_matches (triangle_db ()) (lang "(abc)*ab"));
       false
     with Invalid_argument _ -> true);
  (* but cyclic with finite language works *)
  check_int "cyclic finite" 1 (List.length (Eval.all_matches (triangle_db ()) (lang "abcab")))

let qcheck = QCheck_alcotest.to_alcotest

let arb_db =
  QCheck.make
    ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 100000 in
      let* nnodes = int_range 2 6 in
      let* nfacts = int_range 1 10 in
      return (Generate.random ~nnodes ~nfacts ~alphabet:[ 'a'; 'b'; 'c' ] ~seed ()))

let arb_word =
  QCheck.make
    ~print:(fun w -> w)
    QCheck.Gen.(map Automata.Word.of_list (list_size (int_range 1 4) (oneofl [ 'a'; 'b'; 'c' ])))

(* Reference: does the database contain a w-walk? Direct DFS on the word. *)
let ref_has_word_walk d w =
  let rec go v i =
    if i = String.length w then true
    else
      List.exists
        (fun (_, (f : Db.fact)) -> f.Db.label = w.[i] && go f.Db.dst (i + 1))
        (Db.out_edges d v)
  in
  List.exists (fun v -> go v 0) (List.init (Db.nnodes d) Fun.id)

let prop_satisfies_vs_naive =
  QCheck.Test.make ~name:"product evaluation = naive walk search (single word)" ~count:300
    (QCheck.pair arb_db arb_word)
    (fun (d, w) -> Eval.satisfies d (Automata.Nfa.of_words [ w ]) = ref_has_word_walk d w)

let prop_matches_are_matches =
  QCheck.Test.make ~name:"every enumerated match hits the query" ~count:100
    (QCheck.pair arb_db arb_word)
    (fun (d, w) ->
      let l = Automata.Nfa.of_words [ w ] in
      let ms = Eval.all_matches d l in
      List.for_all
        (fun m ->
          (* keep only this match's facts: the query must still hold *)
          let d' = Db.restrict d ~removed:(fun id -> not (Hypergraph.Iset.mem id m)) in
          Eval.satisfies d' l)
        ms)

(* A Hashtbl-keyed evaluation over [Db.out_edges], the oracle for
   [Eval.Product]: the same breadth-first order must produce the same walk,
   since branch and bound branches on the walk it is given. *)
module Oracle = struct
  let prologue (a : Automata.Nfa.t) =
    let finals = Array.make a.Automata.Nfa.nstates false in
    List.iter (fun f -> finals.(f) <- true) a.Automata.Nfa.final;
    let by_letter = Hashtbl.create 16 in
    List.iter
      (fun (s, c, s') ->
        Hashtbl.replace by_letter (c, s)
          (s' :: Option.value ~default:[] (Hashtbl.find_opt by_letter (c, s))))
      (Automata.Nfa.letter_transitions a);
    (finals, by_letter)

  let satisfies d (a : Automata.Nfa.t) =
    let a = Automata.Nfa.remove_eps a in
    if Automata.Nfa.nullable a then true
    else if a.Automata.Nfa.nstates = 0 then false
    else begin
      let finals, by_letter = prologue a in
      let seen = Hashtbl.create 64 in
      let queue = Queue.create () in
      let push v s =
        if not (Hashtbl.mem seen (v, s)) then begin
          Hashtbl.add seen (v, s) ();
          Queue.add (v, s) queue
        end
      in
      for v = 0 to Db.nnodes d - 1 do
        List.iter (fun s -> push v s) a.Automata.Nfa.initial
      done;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let v, s = Queue.pop queue in
        if finals.(s) then found := true
        else
          List.iter
            (fun (_, (f : Db.fact)) ->
              match Hashtbl.find_opt by_letter (f.Db.label, s) with
              | Some succs -> List.iter (fun s' -> push f.Db.dst s') succs
              | None -> ())
            (Db.out_edges d v)
      done;
      !found
    end

  let shortest_witness d (a : Automata.Nfa.t) =
    let a = Automata.Nfa.remove_eps a in
    if Automata.Nfa.nullable a then Some []
    else if a.Automata.Nfa.nstates = 0 then None
    else begin
      let finals, by_letter = prologue a in
      let parent : (int * int, (int * (int * int)) option) Hashtbl.t = Hashtbl.create 64 in
      let queue = Queue.create () in
      let push key p =
        if not (Hashtbl.mem parent key) then begin
          Hashtbl.add parent key p;
          Queue.add key queue
        end
      in
      for v = 0 to Db.nnodes d - 1 do
        List.iter (fun s -> push (v, s) None) a.Automata.Nfa.initial
      done;
      let result = ref None in
      (try
         while not (Queue.is_empty queue) do
           let ((v, s) as key) = Queue.pop queue in
           if finals.(s) then begin
             let rec build key acc =
               match Hashtbl.find_opt parent key with
               | None | Some None -> acc
               | Some (Some (fid, prev)) -> build prev (fid :: acc)
             in
             result := Some (build key []);
             raise Exit
           end;
           List.iter
             (fun (fid, (f : Db.fact)) ->
               match Hashtbl.find_opt by_letter (f.Db.label, s) with
               | Some succs -> List.iter (fun s' -> push (f.Db.dst, s') (Some (fid, key))) succs
               | None -> ())
             (Db.out_edges d v)
         done
       with Exit -> ());
      !result
    end

  let matches_up_to d (a : Automata.Nfa.t) ~max_len =
    let a = Automata.Nfa.remove_eps a in
    let results = ref [] in
    if Automata.Nfa.nullable a then results := [ Hypergraph.Iset.empty ]
    else if a.Automata.Nfa.nstates > 0 then begin
      let finals, by_letter = prologue a in
      let rec go v s len fact_set =
        if finals.(s) then results := fact_set :: !results;
        if len < max_len then
          List.iter
            (fun (fid, (f : Db.fact)) ->
              match Hashtbl.find_opt by_letter (f.Db.label, s) with
              | Some succs ->
                  List.iter
                    (fun s' -> go f.Db.dst s' (len + 1) (Hypergraph.Iset.add fid fact_set))
                    succs
              | None -> ())
            (Db.out_edges d v)
      in
      for v = 0 to Db.nnodes d - 1 do
        List.iter (fun s -> go v s 0 Hypergraph.Iset.empty) a.Automata.Nfa.initial
      done
    end;
    List.sort_uniq Hypergraph.Iset.compare !results
end

(* One compiled product evaluated under several dead masks in turn (so the
   stamp-reset scratch is reused, as in branch and bound) against the
   oracle on the restricted database. Fact [i] is dead iff bit [i] of the
   mask is set; the first mask is empty. *)
let prop_product_vs_oracle =
  let langs =
    [ "aa"; "ax*b"; "ab|bc"; "abc|be"; "axb|cxd"; "ab|bc|ca"; "b(aa)*d"; "abc"; "(abc)*ab";
      "ab|axb"; "a*"; "!"; "ab|ac"; "axb|axc"; "a(bc|bd)" ]
  in
  let arb =
    QCheck.make
      ~print:(fun (d, s, masks) ->
        Format.asprintf "%s on %a, masks %s" s Db.pp d
          (String.concat "," (List.map string_of_int masks)))
      QCheck.Gen.(
        let* seed = int_bound 1000000 in
        let* nnodes = int_range 2 6 in
        let* nfacts = int_range 1 14 in
        let* s = oneofl langs in
        let* masks = list_size (int_range 1 4) (map2 ( land ) (int_bound 0xFFFF) (int_bound 0xFFFF)) in
        (* Facts over the query's own letters, so that ties are common. *)
        let alphabet = 'a' :: List.filter (fun c -> c >= 'b' && c <= 'z') (List.of_seq (String.to_seq s)) in
        return (Generate.random ~nnodes ~nfacts ~alphabet ~seed (), s, 0 :: masks))
  in
  QCheck.Test.make ~name:"compiled product = Hashtbl oracle under dead masks" ~count:400 arb
    (fun (d, s, masks) ->
      let a = lang s in
      let p = Eval.Product.compile d a in
      let dead = Eval.Product.dead p in
      List.for_all
        (fun mask ->
          Array.iteri (fun fid _ -> dead.(fid) <- mask land (1 lsl fid) <> 0) dead;
          let d' = Db.restrict d ~removed:(fun fid -> dead.(fid)) in
          Eval.Product.shortest_witness p = Oracle.shortest_witness d' a
          && Eval.Product.satisfies p = Oracle.satisfies d' a
          && List.equal Hypergraph.Iset.equal
               (Eval.Product.matches_up_to p ~max_len:4)
               (Oracle.matches_up_to d' a ~max_len:4)
          && Eval.shortest_witness d' a = Oracle.shortest_witness d' a)
        masks)

let test_serialize_roundtrip () =
  let d = Db.make_bag ~nnodes:3 ~facts:[ (0, 'a', 1, 2); (1, 'b', 2, 1) ] in
  match Serialize.of_string (Serialize.to_string d) with
  | Ok (d2, _) ->
      check_int "facts" (Db.fact_count d) (Db.fact_count d2);
      check_int "total mult" (Db.total_mult d) (Db.total_mult d2)
  | Error e -> Alcotest.fail e

let test_serialize_errors () =
  check "bad line" true (Result.is_error (Serialize.of_string "a bc"));
  check "bad mult" true (Result.is_error (Serialize.of_string "u a v zero"));
  check "comments ok" true (Result.is_ok (Serialize.of_string "# hi\nu a v\n"));
  (* non-positive multiplicities are rejected, not silently accepted *)
  check "mult 0" true (Result.is_error (Serialize.of_string "u a v 0"));
  check "mult -2" true (Result.is_error (Serialize.of_string "u a v -2"));
  (* errors carry the 1-based line number so the CLI can report file:line *)
  (match Serialize.parse "u a v\n\nx b" with
  | Error e -> check "line number" true (String.length e >= 2 && String.sub e 0 2 = "3:")
  | Ok _ -> Alcotest.fail "malformed line accepted");
  match Serialize.parse "u a v\nv b w 2\n" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check "node_id known" true (p.Serialize.node_id "v" <> None);
      check "node_id unknown" true (p.Serialize.node_id "zz" = None);
      check "node_name inverts node_id" true
        (match p.Serialize.node_id "w" with
        | Some id -> p.Serialize.node_name id = "w"
        | None -> false)

let test_dot_export () =
  let d = Db.make ~nnodes:2 ~facts:[ (0, 'a', 1) ] in
  let dot = Serialize.to_dot d in
  check "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let a = Automata.Dot.of_nfa (lang "ab") in
  check "nfa dot" true (String.sub a 0 7 = "digraph");
  let df = Automata.Dot.of_dfa (Automata.Dfa.of_nfa (lang "ab")) in
  check "dfa dot" true (String.sub df 0 7 = "digraph")

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip preserves facts" ~count:100 arb_db (fun d ->
      match Serialize.of_string (Serialize.to_string d) with
      | Ok (d2, _) -> Db.fact_count d = Db.fact_count d2 && Db.total_mult d = Db.total_mult d2
      | Error _ -> false)

(* The database parser and [Db.of_mult_list] as they were before the
   one-pass scan and the integer-keyed sort: split/trim/split lists, a
   polymorphic Hashtbl merge and a polymorphic sort. The facts come back
   as (src, label, dst, mult) in fact-id order. *)
module Parse_oracle = struct
  let of_mult_list nnodes fact_mults =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (src, label, dst, m) ->
        if src < 0 || src >= nnodes || dst < 0 || dst >= nnodes then
          invalid_arg "Db.make: node out of range";
        if m < 1 then invalid_arg "Db.make: multiplicity must be >= 1";
        let key = (src, label, dst) in
        Hashtbl.replace tbl key (Option.value ~default:0 (Hashtbl.find_opt tbl key) + m))
      fact_mults;
    let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) tbl [] in
    List.map (fun ((s, l, d), m) -> (s, l, d, m)) (List.sort compare entries)

  let parse s =
    let names = Hashtbl.create 16 and rev_names = ref [] and next = ref 0 in
    let node name =
      match Hashtbl.find_opt names name with
      | Some id -> id
      | None ->
          let id = !next in
          incr next;
          Hashtbl.add names name id;
          rev_names := name :: !rev_names;
          id
    in
    let facts = ref [] in
    let add ?(mult = 1) u label v =
      let us = node u in
      let vs = node v in
      facts := (us, label, vs, mult) :: !facts
    in
    let error = ref None in
    List.iteri
      (fun lineno line ->
        if !error = None then begin
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
            | [ src; label; dst ] when String.length label = 1 -> add src label.[0] dst
            | [ src; label; dst; m ] when String.length label = 1 -> begin
                match int_of_string_opt m with
                | Some m when m >= 1 -> add ~mult:m src label.[0] dst
                | _ ->
                    error :=
                      Some
                        (Printf.sprintf "%d: bad multiplicity %S (expected an integer >= 1)"
                           (lineno + 1) m)
              end
            | _ ->
                error :=
                  Some
                    (Printf.sprintf
                       "%d: expected `src label dst [mult]` with a single-character label"
                       (lineno + 1))
        end)
      (String.split_on_char '\n' s);
    match !error with
    | Some e -> Error e
    | None ->
        let db = of_mult_list !next (List.rev !facts) in
        Ok (!next, db, List.rev !rev_names, Hashtbl.find_opt names)
end

let db_entries d =
  List.map (fun (id, (f : Db.fact)) -> (f.Db.src, f.Db.label, f.Db.dst, Db.mult d id)) (Db.facts d)

(* Database texts that stress the scanner: duplicate facts, multiplicities
   (also in forms int_of_string accepts), comments, blank lines, CRLF,
   tabs and spaces around and inside tokens, odd names, and malformed
   lines (bad label, mult 0 or x, wrong token count). *)
let gen_db_text =
  QCheck.Gen.(
    let name =
      oneof
        [
          oneofl [ "u"; "v"; "w"; "x.1"; "x.2"; "#h"; "é"; "a\tb"; "0"; "-"; "{}" ];
          map (fun k -> "n" ^ string_of_int k) (int_bound 60);
        ]
    in
    let sp = oneofl [ " "; "  "; "\t"; " \t "; "" ] in
    let fact label mult =
      let* l = sp and* a = name and* lab = label and* b = name and* m = mult and* r = sp in
      return (l ^ a ^ " " ^ lab ^ " " ^ b ^ m ^ r)
    in
    let good =
      fact
        (oneofl [ "a"; "b"; "c"; "#"; "\t" ])
        (oneofl [ ""; " 1"; " 2"; "  3"; " 0x2"; " 1_0"; " +4"; " 007"; " 123456789012345678" ])
    in
    let bad =
      oneof
        [
          fact (oneofl [ "ab"; "" ]) (return "");
          fact (return "a")
            (oneofl [ " 0"; " x"; " -1"; " 2 2"; " 2\t"; " 00"; " 4611686018427387904"; " 1e3" ]);
          map (fun n -> n) name;
        ]
    in
    let line =
      frequency
        [ (12, good); (1, return ""); (1, return "# comment a b c"); (1, return "   ") ]
    in
    let* lines = list_size (int_range 0 30) line in
    let* lines =
      frequency
        [
          (2, return lines);
          ( 1,
            let* at = int_bound (List.length lines) and* b = bad in
            let before = List.filteri (fun i _ -> i < at) lines in
            return (before @ (b :: List.filteri (fun i _ -> i >= at) lines))
          );
        ]
    in
    let* eol = oneofl [ "\n"; "\r\n" ] in
    let* trailing = bool in
    return (String.concat eol lines ^ if trailing then eol else ""))

let prop_parse_vs_oracle =
  QCheck.Test.make ~name:"Serialize.parse = the list-splitting parser (facts, names, errors)"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_db_text)
    (fun text ->
      match (Serialize.parse text, Parse_oracle.parse text) with
      | Error e, Error e' -> e = e'
      | Ok p, Ok (nnodes, entries, names, node_id) ->
          Db.nnodes p.Serialize.db = nnodes
          && Db.fact_count p.Serialize.db = List.length entries
          && db_entries p.Serialize.db = entries
          && List.for_all2
               (fun id n -> p.Serialize.node_name id = n)
               (List.init nnodes Fun.id) names
          && p.Serialize.node_name nnodes = Printf.sprintf "#%d" nnodes
          && p.Serialize.node_name (-1) = "#-1"
          && List.for_all
               (fun n -> p.Serialize.node_id n = node_id n)
               ("zz" :: "" :: names)
      | _ -> false)

(* Fact lists with out-of-range nodes, bad multiplicities, duplicates and
   every label byte: the same facts and ids, or the same error. *)
let prop_make_bag_vs_oracle =
  QCheck.Test.make ~name:"Db.make_bag = the Hashtbl-merge and polymorphic sort" ~count:1000
    (QCheck.make
       ~print:(fun (n, l) ->
         Printf.sprintf "%d: %s" n
           (String.concat "; "
              (List.map (fun (s, c, d, m) -> Printf.sprintf "%d %C %d %d" s c d m) l)))
       QCheck.Gen.(
         let* n = int_range 0 6 in
         let* l =
           list_size (int_range 0 25)
             (quad (int_range (-1) 6) (map Char.chr (oneof [ int_range 97 99; int_bound 255 ]))
                (int_range (-1) 6) (int_range 0 4))
         in
         return (n, l)))
    (fun (nnodes, facts) ->
      let result f = match f () with r -> Ok r | exception Invalid_argument e -> Error e in
      let got = result (fun () -> db_entries (Db.make_bag ~nnodes ~facts)) in
      let want = result (fun () -> Parse_oracle.of_mult_list nnodes facts) in
      got = want
      &&
      let in_range =
        List.filter (fun (s, _, d, _) -> s >= 0 && s < nnodes && d >= 0 && d < nnodes) facts
      in
      let d = Db.unsafe_make_bag ~nnodes ~facts:in_range in
      db_entries d = List.sort compare in_range)

let () =
  Alcotest.run "graphdb"
    [
      ( "db",
        [
          Alcotest.test_case "basics" `Quick test_db_basics;
          Alcotest.test_case "bag" `Quick test_db_bag;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "acyclic" `Quick test_acyclic;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "builder" `Quick test_builder;
        ] );
      ( "eval",
        [
          Alcotest.test_case "satisfies" `Quick test_satisfies;
          Alcotest.test_case "walks repeat facts" `Quick test_walks_repeat_facts;
          Alcotest.test_case "shortest witness" `Quick test_shortest_witness;
          Alcotest.test_case "witness is a match" `Quick test_witness_is_match;
          Alcotest.test_case "matches" `Quick test_matches;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "errors" `Quick test_serialize_errors;
          Alcotest.test_case "dot" `Quick test_dot_export;
        ] );
      ( "properties",
        List.map qcheck
          [
            prop_satisfies_vs_naive;
            prop_matches_are_matches;
            prop_product_vs_oracle;
            prop_serialize_roundtrip;
            prop_parse_vs_oracle;
            prop_make_bag_vs_oracle;
          ] );
    ]
