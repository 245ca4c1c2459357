(* Network robustness: the paper's introduction observes that resilience of
   the RPQ ax*b under bag semantics IS the classical MinCut problem
   (a-facts = sources, x-facts = network edges, b-facts = sinks).

   This example builds layered flow networks, computes their resilience with
   the Theorem 3.3 solver, and cross-checks the value against a directly
   constructed flow network solved by Dinic's algorithm.

   Run with: dune exec examples/network_robustness.exe *)

open Resilience
module Db = Graphdb.Db
module Net = Flow.Network

(* Build the flow network corresponding to the database by hand: one network
   edge per x-fact, a super-source wired to the heads of a-facts and a
   super-sink wired from the tails of b-facts. Removing an a-fact (resp.
   b-fact) is modeled by the capacity of its source-side (resp. sink-side)
   edge, so cuts of this network are exactly contingency sets. *)
let direct_mincut db =
  let net = Net.create () in
  let nodes = Array.init (Db.nnodes db) (fun _ -> Net.add_vertex net) in
  let source = Net.add_vertex net and sink = Net.add_vertex net in
  List.iter
    (fun (id, (f : Db.fact)) ->
      match f.Db.label with
      | 'a' -> ignore (Net.add_edge net ~src:source ~dst:nodes.(f.Db.dst) (Net.Finite (Db.mult db id)))
      | 'x' ->
          ignore
            (Net.add_edge net ~src:nodes.(f.Db.src) ~dst:nodes.(f.Db.dst)
               (Net.Finite (Db.mult db id)))
      | 'b' -> ignore (Net.add_edge net ~src:nodes.(f.Db.src) ~dst:sink (Net.Finite (Db.mult db id)))
      | _ -> ())
    (Db.facts db);
  (Net.min_cut net ~source ~sink).Net.value

let () =
  let l = Automata.Lang.of_string "ax*b" in
  Format.printf "MinCut correspondence sweep (resilience of ax*b = min cut of the network)@.";
  Format.printf "%8s %8s %10s %12s %12s@." "width" "depth" "facts" "RES(ax*b)" "direct cut";
  List.iter
    (fun (w, d) ->
      let db = Graphdb.Generate.flow_grid ~width:w ~depth:d ~max_mult:7 ~seed:(w + d) () in
      let r = Solver.solve db l in
      let direct = direct_mincut db in
      Format.printf "%8d %8d %10d %12s %12s%s@." w d (Db.fact_count db)
        (Cert.Value.to_string r.Solver.value)
        (match direct with Net.Finite v -> string_of_int v | Net.Inf -> "inf")
        (match (r.Solver.value, direct) with
        | Cert.Value.Finite a, Net.Finite b when a = b -> "   [agree]"
        | _ -> "   [MISMATCH]"))
    [ (2, 2); (4, 4); (8, 8); (16, 16) ];

  (* Robustness interpretation: the witness tells an operator which links to
     guard: they form a minimum set whose failure disconnects the service. *)
  let db = Graphdb.Generate.flow_grid ~width:3 ~depth:3 ~max_mult:2 ~seed:9 () in
  let r = Solver.solve db l in
  Format.printf "@.On a 3x3 grid, a minimum contingency set (the critical links):@.";
  (match r.Solver.witness with
  | Some w ->
      List.iter
        (fun id ->
          let f = Db.fact db id in
          Format.printf "  %d --%c--> %d (cost %d)@." f.Db.src f.Db.label f.Db.dst (Db.mult db id))
        w
  | None -> Format.printf "  (no witness)@.");
  Format.printf "total cost: %a@." Cert.Value.pp r.Solver.value
