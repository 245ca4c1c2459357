module Db = Graphdb.Db

type shape = {
  alpha : Automata.Word.t;
  a_pre : char;
  a_new : char;
  mirrored : bool;
}

let recognize_direct ws =
  match List.sort (fun a b -> compare (String.length b) (String.length a)) ws with
  | [ alpha; short ] when String.length short = 2 && String.length alpha >= 2 ->
      let n = String.length alpha in
      let a_pre = short.[0] and a_new = short.[1] in
      if
        Automata.Word.all_distinct alpha
        && a_pre = alpha.[n - 2]
        && (not (String.contains alpha a_new))
        && a_new <> a_pre
      then Some { alpha; a_pre; a_new; mirrored = false }
      else None
  | _ -> None

let recognize ws =
  match recognize_direct ws with
  | Some s -> Some s
  | None ->
      Option.map
        (fun s -> { s with mirrored = true })
        (recognize_direct (List.map Automata.Word.mirror ws))

let recognize_nfa a =
  match Automata.Dfa.words (Automata.Dfa.of_nfa a) with
  | Some ws -> recognize ws
  | None -> None

(* Weighted degree helpers: total multiplicity of c-facts into / out of v. *)
let in_weight d c v =
  List.fold_left
    (fun acc (fid, (f : Db.fact)) ->
      if f.Db.label = c && f.Db.dst = v then acc + Db.mult d fid else acc)
    0 (Db.facts d)

let out_weight d c v =
  List.fold_left
    (fun acc (fid, (f : Db.fact)) ->
      if f.Db.label = c && f.Db.src = v then acc + Db.mult d fid else acc)
    0 (Db.facts d)

(* The inner term RES_bag(α, ·): a single all-distinct-letters word is a
   local language, solved exactly by the Theorem 3.3 MinCut solver. *)
let res_alpha d alpha =
  let a = Automata.Nfa.of_words [ alpha ] in
  let ro = Automata.Local.ro_enfa a in
  match Local_solver.solve_ro d ~ro with
  | Cert.Value.Finite v, _ -> v
  | Cert.Value.Infinite, _ ->
      Invariant.internal_error "Submod_solver.res_alpha: infinite resilience for nonempty α"

let oracle d shape =
  let { alpha; a_pre; a_new; mirrored = _ } = shape in
  let n = String.length alpha in
  let a_n = alpha.[n - 1] in
  (* Ground set: middles of actual a_pre·a_new matches; all other vertices
     have a forced optimal side (see DESIGN.md / proof of Prop 7.7). *)
  let ground =
    List.init (Db.nnodes d) Fun.id
    |> List.filter (fun v -> in_weight d a_pre v > 0 && out_weight d a_new v > 0)
  in
  let garr = Array.of_list ground in
  let f z =
    (* z.(i) = true iff garr.(i) ∈ Z. *)
    let in_z v =
      (* Vertices outside the ground set with no incoming a_pre facts are
         treated as ∈ Z at cost 0; others as ∉ Z at cost 0. *)
      match Array.to_list garr |> List.find_index (( = ) v) with
      | Some i -> z.(i)
      | None -> in_weight d a_pre v = 0
    in
    let cost_sides = ref 0 in
    Array.iteri
      (fun i v ->
        if z.(i) then cost_sides := !cost_sides + in_weight d a_pre v
        else cost_sides := !cost_sides + out_weight d a_new v)
      garr;
    (* Remove the a_n-facts leaving Z; this is the claim marked by a star in
       the proof of Prop 7.7. *)
    let removed =
      List.filter_map
        (fun (fid, (fct : Db.fact)) ->
          if fct.Db.label = a_n && in_z fct.Db.src then Some fid else None)
        (Db.facts d)
    in
    let d' = Db.restrict d ~removed:(fun id -> List.mem id removed) in
    !cost_sides + res_alpha d' alpha
  in
  (ground, f)

let solve ?budget d a =
  let b = match budget with Some b -> b | None -> Budget.unlimited () in
  match recognize_nfa a with
  | None -> Error "language does not have the \xce\xb1|a(n-1)a(n+1) submodular shape"
  | Some shape ->
      Check.cheap "Submod_solver.solve: database" (fun () -> Db.validate d);
      let d = if shape.mirrored then Db.reverse d else d in
      let ground, f = oracle d shape in
      let n = List.length ground in
      (* Prop 7.7's reduction is only sound if the oracle really is
         submodular. Each evaluation solves a MinCut, so sample a bounded
         number of triples, and drop the check level while doing it: the
         point here is submodularity, not re-certifying every inner cut. *)
      Check.paranoid "Submod_solver.solve: oracle submodularity" (fun () ->
          Check.with_level Check.Off (fun () ->
              Submodular.Sfm.validate_submodular ~samples:24 ~n f));
      let value, minimizer = Submodular.Sfm.minimize ~fuel:(Budget.fuel b) ~n f in
      Check.paranoid "Submod_solver.solve: SFM certificate" (fun () ->
          let v = f minimizer in
          if v = value then Ok ()
          else
            Error
              [
                Invariant.violation ~subsystem:"Submodular.Sfm" ~invariant:"minimizer-value"
                  "f(returned set) = %d but the minimizer claims %d" v value;
              ]);
      Ok (Cert.Value.Finite value)
