(* Quickstart: build a small graph database, ask for the resilience of a few
   RPQs, and inspect witnesses.

   Run with: dune exec examples/quickstart.exe *)

open Resilience
module Db = Graphdb.Db

let () =
  (* A small labeled graph: a = "assigned-to", x = "links-to", b = "blocks". *)
  let b = Db.Builder.create () in
  List.iter
    (fun (u, l, v) -> Db.Builder.add b u l v)
    [
      ("alice", 'a', "task1");
      ("bob", 'a', "task1");
      ("task1", 'x', "task2");
      ("task2", 'x', "task3");
      ("task3", 'b', "release");
      ("task2", 'b', "release");
    ];
  let db = Db.Builder.build b in
  Format.printf "Database:@.%a@." Db.pp db;

  (* The RPQ ax*b asks: is some assignment connected to a blocker through a
     chain of links? Its resilience = the minimum number of facts to delete
     so that no such path remains (Theorem 3.3 computes it via MinCut). *)
  List.iter
    (fun q ->
      let l = Automata.Lang.of_string q in
      let r = Solver.solve db l in
      Format.printf "RES(%s) = %a   [algorithm: %s, verdict: %s]@." q Cert.Value.pp r.Solver.value
        (Solver.algorithm_name r.Solver.algorithm)
        (Classify.verdict_summary r.Solver.classification.Classify.verdict);
      match r.Solver.witness with
      | Some w when w <> [] ->
          Format.printf "  a minimum contingency set:@.";
          List.iter
            (fun id ->
              let f = Db.fact db id in
              Format.printf "    fact %d: %d --%c--> %d@." id f.Db.src f.Db.label f.Db.dst)
            w
      | _ -> ())
    [ "ax*b"; "ab|ax*b"; "xx"; "axb" ]
