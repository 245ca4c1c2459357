(* Beyond Boolean resilience: the analyses around the core problem —
   enumeration of all minimum contingency sets, per-fact responsibility
   (Freire et al., reference [12] of the paper), fixed-endpoint resilience
   and two-way RPQs (both Section 8 future-work directions), and the ILP
   baseline with its LP relaxation (reference [23]).

   Run with: dune exec examples/beyond_boolean.exe *)

open Resilience
module Db = Graphdb.Db

let () =
  (* A small supply-chain graph: s = supplies, t = transports, c = certifies. *)
  let b = Db.Builder.create () in
  List.iter
    (fun (u, l, v) -> Db.Builder.add b u l v)
    [
      ("mine1", 's', "smelter");
      ("mine2", 's', "smelter");
      ("smelter", 't', "factory");
      ("factory", 't', "depot");
      ("auditor", 'c', "factory");
      ("depot", 't', "store");
    ];
  let db = Db.Builder.build b in
  let l = Automata.Lang.of_string "st*" in
  Format.printf "Supply-chain database (%d facts); query st* (a supplied chain)@."
    (Db.fact_count db);

  (* 1. All minimum contingency sets. *)
  let v, sets = Analysis.all_minimum_contingency_sets db l in
  Format.printf "@.RES(st*) = %a with %d minimum contingency set(s):@." Cert.Value.pp v
    (List.length sets);
  List.iter
    (fun set ->
      Format.printf "  {%s}@."
        (String.concat ", "
           (List.map
              (fun id ->
                let f = Db.fact db id in
                Printf.sprintf "%d-%c->%d" f.Db.src f.Db.label f.Db.dst)
              (Hypergraph.Iset.elements set))))
    sets;

  (* 2. Responsibility ranking: which individual fact matters most? *)
  Format.printf "@.Responsibility ranking (1/(1+k) scores):@.";
  List.iter
    (fun (id, score) ->
      let f = Db.fact db id in
      if score > 0.0 then
        Format.printf "  %d-%c->%d : %.3f@." f.Db.src f.Db.label f.Db.dst score)
    (Analysis.most_responsible_facts db l);

  (* 3. Fixed endpoints: how robust is the mine1 -> store connection? *)
  let mine1 = 0 in
  (* node ids follow insertion order in the builder *)
  let store = Db.nnodes db - 1 in
  let r = St_resilience.solve db (Automata.Lang.of_string "st*t") ~src:mine1 ~dst:store in
  Format.printf "@.(s,t)-resilience of st*t from mine1 to store: %a [%s]@." Cert.Value.pp
    r.St_resilience.value
    (Solver.algorithm_name r.St_resilience.algorithm);

  (* 4. Two-way RPQ: sT = a supplier whose smelter is supplied by another
     mine (s forward then s... use sS: supply then backward supply). *)
  let l2 = Automata.Lang.of_string "sS" in
  Format.printf "@.Two-way query sS (two mines sharing a smelter): satisfied=%b, RES=%a@."
    (Two_way.satisfies db l2)
    Cert.Value.pp
    (fst (Two_way.resilience db l2));

  (* 5. ILP baseline and its LP relaxation. *)
  (match (Ilp_solver.solve db l, Ilp_solver.lp_relaxation db l) with
  | Ok (v, _), Ok lp ->
      Format.printf "@.ILP baseline: RES = %a, LP relaxation = %.2f (integrality gap %s)@."
        Cert.Value.pp v lp
        (match v with
        | Cert.Value.Finite n when float_of_int n > lp +. 1e-6 -> "> 1"
        | _ -> "= 1")
  | Error e, _ | _, Error e -> Format.printf "ILP error: %s@." e)
