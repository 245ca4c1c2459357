type instance = {
  nvars : int;
  weights : int array;
  covers : int list list;
}

type solution = { value : int; assignment : bool array; lp_bound : float }

let nodes = Obs.Metrics.counter "ilp.nodes"

(* The relaxation without fixings; its covering rows are built once per
   call and shared by every node's LP ([Simplex.solve] only reads them). *)
let relaxation instance =
  Simplex.lp_relaxation_of_cover ~nvars:instance.nvars
    ~weights:(Array.map float_of_int instance.weights)
    ~sets:instance.covers

(* Fixings are encoded by bounds: x_i = 0 via upper bound 0; x_i = 1 via an
   extra covering row {i}. *)
let lp_of (base : Simplex.problem) ~fixed0 ~fixed1 =
  let upper = Array.copy base.Simplex.upper in
  List.iter (fun i -> upper.(i) <- Some 0.0) fixed0;
  let extra =
    List.map
      (fun i ->
        let a = Array.make base.Simplex.ncols 0.0 in
        a.(i) <- 1.0;
        (a, 1.0))
      fixed1
  in
  { base with Simplex.upper; rows = base.Simplex.rows @ extra }

let lp_bound ?fuel instance =
  match Simplex.solve ?fuel (relaxation instance) with
  | Simplex.Optimal { value; _ } -> Ok value
  | Simplex.Infeasible -> Error "infeasible LP relaxation"
  | Simplex.Unbounded -> Error "unbounded LP relaxation (bug: covering LPs are bounded)"

let frac x = abs_float (x -. Float.round x)

let solve ?(fuel = fun () -> ()) instance =
  if List.exists (( = ) []) instance.covers then Error "infeasible: empty cover set"
  else begin
    let best = ref max_int in
    let best_assignment = ref (Array.make instance.nvars true) in
    let root_bound = ref nan in
    let base = relaxation instance in
    let rec branch fixed0 fixed1 depth =
      fuel ();
      Obs.Metrics.incr nodes;
      if depth > 2 * instance.nvars then
        Invariant.internal_error "Ilp.solve: branching depth %d exceeded 2*nvars" depth;
      match Simplex.solve ~fuel (lp_of base ~fixed0 ~fixed1) with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
          Invariant.internal_error "Ilp.solve: unbounded covering LP (bounded by construction)"
      | Simplex.Optimal { value; solution } ->
          if depth = 0 then root_bound := value;
          (* Integer lower bound: weights are integers, so round up. *)
          let bound = int_of_float (Float.round (ceil (value -. 1e-6))) in
          if bound < !best then begin
            (* most fractional variable *)
            let pick = ref (-1) and worst = ref 1e-6 in
            Array.iteri
              (fun i v ->
                if frac v > !worst then begin
                  worst := frac v;
                  pick := i
                end)
              solution;
            if !pick < 0 then begin
              (* integral LP solution *)
              let assignment = Array.map (fun v -> v > 0.5) solution in
              (* guard against numerical drift: recompute the true value *)
              let v = ref 0 in
              Array.iteri (fun i b -> if b then v := !v + instance.weights.(i)) assignment;
              if !v < !best then begin
                best := !v;
                best_assignment := assignment
              end
            end
            else begin
              branch fixed0 (!pick :: fixed1) (depth + 1);
              branch (!pick :: fixed0) fixed1 (depth + 1)
            end
          end
    in
    branch [] [] 0;
    if !best = max_int then Error "infeasible"
    else Ok { value = !best; assignment = !best_assignment; lp_bound = !root_bound }
  end
