(* Gadget explorer: build a hardness gadget, verify it (Definition 4.9),
   encode a vertex-cover instance with it (Definition 4.5), and confirm the
   Prop 4.11 relation RES_set(Q_L, encoding) = vc(G) + m(l-1)/2 by solving
   the resilience instance exactly.

   Run with: dune exec examples/gadget_explorer.exe [-- gadget-name] *)

open Resilience
module Db = Graphdb.Db

let explore (name, g, l) =
  Format.printf "@.=== %s ===@." name;
  let v = Gadgets.verify g l in
  Format.printf "pre-gadget: %d nodes, %d facts, label %c@." (Db.nnodes g.Gadgets.db)
    (Db.fact_count g.Gadgets.db) g.Gadgets.label;
  Format.printf "matches on the completion: %d hyperedges@."
    (Hypergraph.edge_count v.Gadgets.matches);
  (match v.Gadgets.odd_path_length with
  | Some len -> Format.printf "condenses to an odd F_in--F_out path of length %d: VALID@." len
  | None -> Format.printf "INVALID: %s@." (Option.value ~default:"?" v.Gadgets.failure));
  if v.Gadgets.ok then begin
    let graph = Graphs.Ugraph.make ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (0, 2) ] in
    let k = Graphs.Ugraph.vertex_cover_number graph in
    let xi = Gadgets.encode g graph in
    let expected = Gadgets.expected_resilience g l graph in
    let measured, _ = Exact.hitting_set xi l in
    Format.printf "encoding a 4-vertex graph (m=4, vc=%d): %d facts@." k (Db.fact_count xi);
    Format.printf "predicted resilience %d, measured %a -> %s@." expected Cert.Value.pp measured
      (if Cert.Value.equal measured (Cert.Value.Finite expected) then "reduction confirmed"
       else "MISMATCH")
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let all = Gadgets.all_paper_gadgets () in
  let targets =
    if args = [] then all
    else
      List.filter
        (fun (n, _, _) ->
          List.exists (fun a -> String.length a <= String.length n && String.sub n 0 (String.length a) = a) args)
        all
  in
  Format.printf "Hardness-gadget explorer (%d gadgets)@." (List.length targets);
  List.iter explore targets
