module Db = Graphdb.Db
module Net = Flow.Network

type network = {
  net : Net.t;
  source : int;
  sink : int;
  fact_edge : (int * int) list;
}

let build_network d ~ro =
  if not (Automata.Nfa.is_read_once ro) then
    invalid_arg "Local_solver.build_network: automaton is not read-once";
  Check.cheap "Local_solver.build_network: database" (fun () -> Db.validate d);
  Check.cheap "Local_solver.build_network: RO-εNFA" (fun () -> Automata.Nfa.validate ro);
  let nstates = ro.Automata.Nfa.nstates in
  let net = Net.create () in
  (* Vertex (v, s) = v * nstates + s, then source and sink. *)
  let nv = Db.nnodes d in
  for _ = 1 to nv * nstates do
    ignore (Net.add_vertex net)
  done;
  let source = Net.add_vertex net and sink = Net.add_vertex net in
  let vert v s = (v * nstates) + s in
  (* The read-once property gives at most one transition per letter. *)
  let tr_of_letter = Hashtbl.create 16 in
  List.iter
    (fun (s, c, s') -> Hashtbl.replace tr_of_letter c (s, s'))
    (Automata.Nfa.letter_transitions ro);
  let fact_edge = ref [] in
  List.iter
    (fun (fid, (f : Db.fact)) ->
      match Hashtbl.find_opt tr_of_letter f.Db.label with
      | Some (s, s') ->
          let eid =
            Net.add_edge net ~src:(vert f.Db.src s) ~dst:(vert f.Db.dst s')
              (Net.Finite (Db.mult d fid))
          in
          fact_edge := (eid, fid) :: !fact_edge
      | None -> ())
    (Db.facts d);
  List.iter
    (fun (s, s') ->
      for v = 0 to nv - 1 do
        ignore (Net.add_edge net ~src:(vert v s) ~dst:(vert v s') Net.Inf)
      done)
    (Automata.Nfa.eps_transitions ro);
  List.iter
    (fun s ->
      for v = 0 to nv - 1 do
        ignore (Net.add_edge net ~src:source ~dst:(vert v s) Net.Inf)
      done)
    ro.Automata.Nfa.initial;
  List.iter
    (fun s ->
      for v = 0 to nv - 1 do
        ignore (Net.add_edge net ~src:(vert v s) ~dst:sink Net.Inf)
      done)
    ro.Automata.Nfa.final;
  { net; source; sink; fact_edge = List.rev !fact_edge }

let cut_facts net ~fact_edge (cut : Net.cut) =
  let fact_of_edge = Array.make (Net.edge_count net) (-1) in
  List.iter (fun (eid, fid) -> fact_of_edge.(eid) <- fid) fact_edge;
  List.filter_map
    (fun eid -> if fact_of_edge.(eid) >= 0 then Some fact_of_edge.(eid) else None)
    cut.Net.edges

(* The common solve path, returning the certificate as a thunk: the hot
   callers (the submodular solver's oracle evaluates thousands of
   restricted instances through [solve_ro]) never force it, so they pay
   nothing for certification. *)
let solve_ro_gen d ~ro =
  if Automata.Nfa.nullable ro then
    (Cert.Value.Infinite, [], fun () -> Certify.trivial "epsilon-in-language")
  else if ro.Automata.Nfa.nstates = 0 || Db.nnodes d = 0 then
    (Cert.Value.Finite 0, [], fun () -> Certify.trivial "query-unsatisfied")
  else begin
    let { net; source; sink; fact_edge } = build_network d ~ro in
    Check.cheap "Local_solver.solve_ro: product network" (fun () -> Net.validate net);
    let cut, flow = Net.min_cut_certified net ~source ~sink in
    (* Weak duality: flow value = cut value proves both optimal (Thm 3.3's
       MinCut is exact, so a malformed cut would silently corrupt RES). *)
    Check.paranoid "Local_solver.solve_ro: MinCut certificate" (fun () ->
        Net.validate_certificate net ~source ~sink cut ~flow);
    Check.paranoid "Local_solver.solve_ro: push-relabel cross-check" (fun () ->
        let cut', flow' = Flow.Push_relabel.min_cut_certified net ~source ~sink in
        match Net.validate_certificate net ~source ~sink cut' ~flow:flow' with
        | Error _ as e -> e
        | Ok () ->
            if Net.cap_compare cut.Net.value cut'.Net.value = 0 then Ok ()
            else
              Error
                [
                  Invariant.violation ~subsystem:"Flow" ~invariant:"algorithm-agreement"
                    "Dinic found %s but push-relabel found %s"
                    (Format.asprintf "%a" Net.pp_capacity cut.Net.value)
                    (Format.asprintf "%a" Net.pp_capacity cut'.Net.value);
                ]);
    let cert () = Certify.cut ~net ~source ~sink ~cut ~flow ~fact_edge ~forced:[] in
    match cut.Net.value with
    | Net.Inf -> (Cert.Value.Infinite, [], cert)
    | Net.Finite v ->
        (Cert.Value.Finite v, List.sort_uniq compare (cut_facts net ~fact_edge cut), cert)
  end

let solve_ro d ~ro =
  let value, witness, _ = solve_ro_gen d ~ro in
  (value, witness)

let solve_ro_certified d ~ro =
  let value, witness, cert = solve_ro_gen d ~ro in
  (value, witness, cert ())

let solve d a =
  (* The construction must consider the whole signature of the database:
     letters of D absent from L's alphabet are harmless (they can never be
     part of an L-walk), so they are simply ignored by the product. *)
  if Automata.Local.is_local_language a then Ok (solve_ro d ~ro:(Automata.Local.ro_enfa a))
  else Error "language is not local"

let solve_certified d a =
  if Automata.Local.is_local_language a then
    Ok (solve_ro_certified d ~ro:(Automata.Local.ro_enfa a))
  else Error "language is not local"
