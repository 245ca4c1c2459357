module Db = Graphdb.Db

let instance_of ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  if Automata.Nfa.nullable a then Error "\xce\xb5 \xe2\x88\x88 L: resilience is infinite"
  else
    match Graphdb.Eval.all_matches ~fuel:(Budget.fuel b) d a with
    | exception Invalid_argument msg -> Error msg
    | matches ->
        (* The cover matrix is materialized all at once; charge it against
           the budget's memory cap before building it. *)
        Budget.charge_memory b (List.length matches);
        let fact_ids = Array.of_list (List.map fst (Db.facts d)) in
        let index = Hashtbl.create 64 in
        Array.iteri (fun i id -> Hashtbl.add index id i) fact_ids;
        let covers =
          List.map
            (fun m ->
              List.map
                (fun id ->
                  match Hashtbl.find_opt index id with
                  | Some i -> i
                  | None ->
                      Invariant.internal_error "Ilp_solver: match uses unknown fact id %d" id)
                (Hypergraph.Iset.elements m))
            matches
        in
        Ok
          ( {
              Lp.Ilp.nvars = Array.length fact_ids;
              weights = Array.map (Db.mult d) fact_ids;
              covers;
            },
            fact_ids )

let solve_with_covers ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  Check.cheap "Ilp_solver.solve: database" (fun () -> Db.validate d);
  if Automata.Nfa.nullable a then Ok (Cert.Value.Infinite, [], [])
  else
    match instance_of ~budget:b d a with
    | Error e -> Error e
    | Ok (inst, fact_ids) -> begin
        match Lp.Ilp.solve ~fuel:(Budget.fuel b) inst with
        | Error e -> Error e
        | Ok sol ->
            (* The assignment is a certificate: it must hit every cover and
               its weight must equal the claimed optimum. *)
            Check.paranoid "Ilp_solver.solve: ILP certificate" (fun () ->
                let c = Invariant.Collector.create "Lp.Ilp" in
                let assignment = sol.Lp.Ilp.assignment in
                Invariant.Collector.check c
                  (Array.length assignment = inst.Lp.Ilp.nvars)
                  ~invariant:"assignment-length" "assignment has %d entries for %d variables"
                  (Array.length assignment) inst.Lp.Ilp.nvars;
                if Array.length assignment = inst.Lp.Ilp.nvars then begin
                  List.iteri
                    (fun i cover ->
                      Invariant.Collector.check c
                        (List.exists (fun v -> assignment.(v)) cover)
                        ~invariant:"cover-hit" "cover %d is not hit by the assignment" i)
                    inst.Lp.Ilp.covers;
                  let weight = ref 0 in
                  Array.iteri
                    (fun i b -> if b then weight := !weight + inst.Lp.Ilp.weights.(i))
                    assignment;
                  Invariant.Collector.check c
                    (!weight = sol.Lp.Ilp.value)
                    ~invariant:"objective-value" "assignment weighs %d but the solver claims %d"
                    !weight sol.Lp.Ilp.value
                end;
                Invariant.Collector.result c);
            let witness = ref [] in
            Array.iteri
              (fun i b -> if b then witness := fact_ids.(i) :: !witness)
              sol.Lp.Ilp.assignment;
            let covers_facts =
              List.map (List.map (fun v -> fact_ids.(v))) inst.Lp.Ilp.covers
            in
            Ok (Cert.Value.Finite sol.Lp.Ilp.value, List.rev !witness, covers_facts)
      end

let solve ?budget d a =
  Result.map (fun (value, witness, _) -> (value, witness)) (solve_with_covers ?budget d a)

let lp_relaxation ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  match instance_of ~budget:b d a with
  | Error e -> Error e
  | Ok (inst, _) -> Lp.Ilp.lp_bound ~fuel:(Budget.fuel b) inst

(* The LP dual of the covering relaxation: maximize Σ y over y ≥ 0 with
   Σ_{j: fact i ∈ cover j} y_j ≤ w_i. Any feasible y is a lower bound on
   every (fractional or integral) hitting set by weak duality, so the
   vector itself is portable evidence — exactly what the Bounds
   certificate ships. Solved through the primal-only {!Lp.Simplex} as
   min -Σ y subject to -A^T y ≥ -w. *)
let lp_dual_bound ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  match instance_of ~budget:b d a with
  | Error e -> Error e
  | Ok (inst, fact_ids) ->
      let covers_facts = List.map (List.map (fun v -> fact_ids.(v))) inst.Lp.Ilp.covers in
      let nc = List.length inst.Lp.Ilp.covers in
      if nc = 0 then Ok (0.0, [], [])
      else begin
        let rows =
          List.init inst.Lp.Ilp.nvars (fun i ->
              let row = Array.make nc 0.0 in
              List.iteri
                (fun j cover -> if List.mem i cover then row.(j) <- -1.0)
                inst.Lp.Ilp.covers;
              (row, -.float_of_int inst.Lp.Ilp.weights.(i)))
        in
        let prob =
          {
            Lp.Simplex.ncols = nc;
            objective = Array.make nc (-1.0);
            rows;
            upper = Array.make nc None;
          }
        in
        match Lp.Simplex.solve ~fuel:(Budget.fuel b) prob with
        | Lp.Simplex.Optimal { value = _; solution } ->
            (* Clamp simplex noise below zero; shrinking a multiplier keeps
               the vector feasible, and the published bound is the sum of
               the published vector, so certificate and bound agree. *)
            let ys =
              Array.to_list (Array.map (fun y -> if y < 0.0 then 0.0 else y) solution)
            in
            Ok (List.fold_left ( +. ) 0.0 ys, ys, covers_facts)
        | Lp.Simplex.Infeasible -> Error "dual LP infeasible"
        | Lp.Simplex.Unbounded -> Error "dual LP unbounded"
      end
