type oracle = bool array -> int

let minimize_bruteforce ~n oracle =
  if n > 25 then invalid_arg "Sfm.minimize_bruteforce: ground set too large";
  let best = ref (oracle (Array.make n false)) in
  let best_set = ref (Array.make n false) in
  for mask = 1 to (1 lsl n) - 1 do
    let s = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    let v = oracle s in
    if v < !best then begin
      best := v;
      best_set := s
    end
  done;
  (!best, !best_set)

let is_submodular ~n oracle =
  if n > 12 then invalid_arg "Sfm.is_submodular: ground set too large";
  (* f submodular iff f(S∪{x}) - f(S) ≥ f(S∪{x,y}) - f(S∪{y}) for all
     S and x, y ∉ S with x ≠ y. *)
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let s = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    let fs = oracle s in
    for x = 0 to n - 1 do
      if not s.(x) then
        for y = 0 to n - 1 do
          if (not s.(y)) && x <> y then begin
            let sx = Array.copy s and sy = Array.copy s and sxy = Array.copy s in
            sx.(x) <- true;
            sy.(y) <- true;
            sxy.(x) <- true;
            sxy.(y) <- true;
            if oracle sx - fs < oracle sxy - oracle sy then ok := false
          end
        done
    done
  done;
  !ok

let check_triple c oracle s x y =
  let module C = Invariant.Collector in
  let sx = Array.copy s and sy = Array.copy s and sxy = Array.copy s in
  sx.(x) <- true;
  sy.(y) <- true;
  sxy.(x) <- true;
  sxy.(y) <- true;
  let lhs = oracle sx - oracle s and rhs = oracle sxy - oracle sy in
  C.check c (lhs >= rhs) ~invariant:"submodularity"
    "f(S∪{%d}) − f(S) = %d < f(S∪{%d,%d}) − f(S∪{%d}) = %d" x lhs x y y rhs

let validate_submodular ?samples ?(seed = 0x5eed) ~n oracle =
  let module C = Invariant.Collector in
  let c = C.create "Submodular.Sfm" in
  if n >= 2 then begin
    if samples = None && n <= 10 then
      (* Exhaustive pairwise characterization, as in [is_submodular]. *)
      for mask = 0 to (1 lsl n) - 1 do
        let s = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
        for x = 0 to n - 1 do
          if not s.(x) then
            for y = x + 1 to n - 1 do
              if not s.(y) then check_triple c oracle s x y
            done
        done
      done
    else begin
      let samples = Option.value ~default:200 samples in
      (* A seeded stream, so that any reported violation is
         reproducible. *)
      let rng = Invariant.Prng.make seed in
      let next bound = Invariant.Prng.int rng bound in
      let tried = ref 0 in
      while !tried < samples do
        let s = Array.init n (fun _ -> next 2 = 1) in
        let x = next n and y = next n in
        if x <> y && (not s.(x)) && not s.(y) then begin
          incr tried;
          check_triple c oracle s x y
        end
      done
    end
  end;
  C.result c

(* ---- Fujishige–Wolfe minimum-norm-point over the base polytope ---- *)

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* Edmonds' greedy algorithm: the base-polytope vertex minimizing <w, q>. *)
let greedy_vertex ~n oracle w =
  let order = List.sort (fun i j -> compare w.(i) w.(j)) (List.init n Fun.id) in
  let s = Array.make n false in
  let q = Array.make n 0.0 in
  let prev = ref (oracle s) in
  List.iter
    (fun i ->
      s.(i) <- true;
      let cur = oracle s in
      q.(i) <- float_of_int (cur - !prev);
      prev := cur)
    order;
  q

(* Affine minimizer of the span of points [ps]: coefficients α with Σα = 1
   minimizing ‖Σ αᵢ pᵢ‖², via the KKT linear system
   [2 PᵀP  1; 1ᵀ 0] [α; μ] = [0; 1], solved by Gaussian elimination. *)
let affine_minimizer ps =
  let k = Array.length ps in
  let m = k + 1 in
  let a = Array.make_matrix m m 0.0 in
  let b = Array.make m 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      a.(i).(j) <- 2.0 *. dot ps.(i) ps.(j)
    done;
    a.(i).(k) <- 1.0;
    a.(k).(i) <- 1.0
  done;
  b.(k) <- 1.0;
  (* Gaussian elimination with partial pivoting. *)
  for col = 0 to m - 1 do
    let piv = ref col in
    for r = col + 1 to m - 1 do
      if abs_float a.(r).(col) > abs_float a.(!piv).(col) then piv := r
    done;
    if !piv <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- tmp;
      let t = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- t
    end;
    let p = a.(col).(col) in
    if abs_float p > 1e-12 then
      for r = 0 to m - 1 do
        if r <> col then begin
          let factor = a.(r).(col) /. p in
          for c = col to m - 1 do
            a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (factor *. b.(col))
        end
      done
  done;
  Array.init k (fun i -> if abs_float a.(i).(i) > 1e-12 then b.(i) /. a.(i).(i) else 0.0)

let combine ps coeffs =
  let n = Array.length ps.(0) in
  let x = Array.make n 0.0 in
  Array.iteri (fun i p -> Array.iteri (fun j v -> x.(j) <- x.(j) +. (coeffs.(i) *. v)) p) ps;
  x

let oracle_calls = Obs.Metrics.counter "sfm.oracle_calls"

let minimize ?(fuel = fun () -> ()) ~n oracle =
  let oracle s =
    fuel ();
    Obs.Metrics.incr oracle_calls;
    oracle s
  in
  if n = 0 then (oracle [||], [||])
  else begin
    (* Normalize so that f(∅) = 0; restored at the end. *)
    let f_empty = oracle (Array.make n false) in
    let eps = 1e-9 in
    let q0 = greedy_vertex ~n oracle (Array.make n 0.0) in
    let points = ref [| q0 |] in
    let lambdas = ref [| 1.0 |] in
    let x = ref (Array.copy q0) in
    let max_major = 100 + (20 * n * n) in
    (try
       for _major = 1 to max_major do
         (* Linear minimization oracle at the current point. *)
         let q = greedy_vertex ~n oracle !x in
         if dot !x !x <= dot !x q +. eps then raise Exit;
         points := Array.append !points [| q |];
         lambdas := Array.append !lambdas [| 0.0 |];
         (* Minor loop: project onto the affine hull, shrinking the corral
            until the affine minimizer is a convex combination. *)
         let continue_minor = ref true in
         while !continue_minor do
           let alpha = affine_minimizer !points in
           if Array.for_all (fun a -> a > 1e-11) alpha then begin
             lambdas := alpha;
             x := combine !points alpha;
             continue_minor := false
           end
           else begin
             (* Largest step toward the affine minimizer keeping convexity. *)
             let theta = ref 1.0 in
             Array.iteri
               (fun i a ->
                 let l = !lambdas.(i) in
                 (* Only coordinates leaving the simplex (α ≤ 0) limit θ. *)
                 if a <= 1e-11 && l -. a > 1e-12 then begin
                   let t = l /. (l -. a) in
                   if t < !theta then theta := t
                 end)
               alpha;
             let k = Array.length !points in
             let newl =
               Array.init k (fun i ->
                   ((1.0 -. !theta) *. !lambdas.(i)) +. (!theta *. alpha.(i)))
             in
             (* Drop points whose coefficient hit zero. *)
             let keep = ref [] in
             Array.iteri (fun i l -> if l > 1e-11 then keep := i :: !keep) newl;
             let keep = List.rev !keep in
             let keep = if keep = [] then [ 0 ] else keep in
             points := Array.of_list (List.map (fun i -> !points.(i)) keep);
             lambdas := Array.of_list (List.map (fun i -> newl.(i)) keep);
             (* Renormalize the coefficients. *)
             let total = Array.fold_left ( +. ) 0.0 !lambdas in
             if total > 1e-12 then lambdas := Array.map (fun l -> l /. total) !lambdas;
             x := combine !points !lambdas
           end
         done
       done
     with Exit -> ());
    (* Recover a minimizer: sort coordinates of x* ascending and take the
       best prefix (robust to floating-point error since we re-evaluate f). *)
    let order = List.sort (fun i j -> compare !x.(i) !x.(j)) (List.init n Fun.id) in
    let best = ref f_empty and best_set = ref (Array.make n false) in
    let s = Array.make n false in
    List.iter
      (fun i ->
        s.(i) <- true;
        let v = oracle s in
        if v < !best then begin
          best := v;
          best_set := Array.copy s
        end)
      order;
    (!best, !best_set)
  end
