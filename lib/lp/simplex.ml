type problem = {
  ncols : int;
  objective : float array;
  rows : (float array * float) list;
  upper : float option array;
}

type outcome =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded

let pivots = Obs.Metrics.counter "simplex.pivots"

let eps = 1e-9

(* Standard form: upper bounds become extra ≥ rows (-x_i ≥ -u_i); every row
   a·x ≥ b with b possibly negative is normalized to b ≥ 0 by sign flip into
   ≤ form... We instead build the classic two-phase tableau for
     min c·x  s.t.  A x - s = b,  x, s ≥ 0
   after flipping rows so that b ≥ 0.

   The tableau stays dense but a pivot touches only the columns where the
   pivot row is nonzero, plus the right-hand side. Every entry those
   columns hold gets the float operations of a dense update; a skipped
   entry would have computed [x -. f *. 0.0], which leaves [x] unchanged
   except that it turns a -0.0 into +0.0. A zero's sign never reaches a
   decision (every test compares magnitudes or ratios with a nonzero
   denominator) and it spreads only within its own column, so only the
   right-hand side, which becomes the solution, must keep dense signs:
   outcomes, pivot counts and solution bits are those of the dense
   update. *)
let solve ?(fuel = fun () -> ()) (p : problem) =
  (* Each upper bound x_i ≤ u_i becomes the row -x_i ≥ -u_i, after the
     problem's rows. It has one nonzero, so it is filled as one entry:
     its other structural entries stay +0.0 where a flipped dense row
     would hold -0.0, and as in a pivot, a zero's sign never reaches a
     decision or the right-hand side. *)
  let bounds =
    List.filter_map (fun i -> Option.map (fun u -> (i, u)) p.upper.(i)) (List.init p.ncols Fun.id)
  in
  let nrows = List.length p.rows in
  let m = nrows + List.length bounds in
  let n = p.ncols in
  (* Columns: n structural + m surplus/slack + m artificial + 1 rhs. *)
  let ncols_t = n + m + m + 1 in
  let rhs = ncols_t - 1 in
  let t = Array.make_matrix (m + 1) ncols_t 0.0 in
  let basis = Array.make m 0 in
  (* Phase 1 minimizes the sum of artificials: row m starts at +0.0 and
     gets every row's nonzero entries subtracted, row by row, as each row
     is filled. Subtracting a zero would leave every entry as it is,
     signs included. The artificial columns' costs stay 0: after the
     basic rows are subtracted their reduced costs are 0. *)
  let obj = t.(m) in
  let set r j x =
    t.(r).(j) <- x;
    if x <> 0.0 then obj.(j) <- obj.(j) -. x
  in
  (* Row r is a·x ≥ b, with [coefs f] calling [f j a_j] for its
     structural entries. a·x ≥ b ⇒ a·x - s = b (s ≥ 0); rows with b < 0
     are flipped and become ≤ with slack. *)
  let fill r b coefs =
    let sign = if b < 0.0 then -1.0 else 1.0 in
    coefs (fun j a -> set r j (sign *. a));
    set r (n + r) (sign *. -1.0);
    t.(r).(n + m + r) <- 1.0;
    set r rhs (sign *. b);
    basis.(r) <- n + m + r
  in
  List.iteri (fun r (a, b) -> fill r b (fun f -> Array.iteri f a)) p.rows;
  List.iteri (fun k (i, u) -> fill (nrows + k) (-.u) (fun f -> f i (-1.0))) bounds;
  (* [nz.(0 .. nnz - 1)]: the pivot row's nonzero columns, rhs excluded. *)
  let nz = Array.make ncols_t 0 in
  let pivot row col =
    let prow = t.(row) in
    let piv = prow.(col) in
    let nnz = ref 0 in
    for j = 0 to rhs - 1 do
      let x = prow.(j) in
      if x <> 0.0 then begin
        prow.(j) <- x /. piv;
        nz.(!nnz) <- j;
        incr nnz
      end
    done;
    prow.(rhs) <- prow.(rhs) /. piv;
    let nnz = !nnz in
    for r = 0 to m do
      let tr = t.(r) in
      if r <> row && abs_float tr.(col) > 0.0 then begin
        let f = tr.(col) in
        for i = 0 to nnz - 1 do
          let j = nz.(i) in
          tr.(j) <- tr.(j) -. (f *. prow.(j))
        done;
        tr.(rhs) <- tr.(rhs) -. (f *. prow.(rhs))
      end
    done;
    if row < m then basis.(row) <- col
  in
  (* Run simplex on the objective stored in row m, over the columns below
     [limit]; Bland's rule for anti-cycling. Returns false on
     unboundedness. *)
  let run limit =
    let continue = ref true and ok = ref true in
    let obj = t.(m) in
    while !continue do
      fuel ();
      Obs.Metrics.incr pivots;
      (* entering column: smallest index with negative reduced cost *)
      let enter = ref (-1) and j = ref 0 in
      while !enter < 0 && !j < limit do
        if obj.(!j) < -.eps then enter := !j;
        incr j
      done;
      if !enter < 0 then continue := false
      else begin
        (* leaving row: min ratio, Bland tie-break on basis index *)
        let leave = ref (-1) and best = ref infinity in
        for r = 0 to m - 1 do
          if t.(r).(!enter) > eps then begin
            let ratio = t.(r).(rhs) /. t.(r).(!enter) in
            if
              ratio < !best -. eps
              || (abs_float (ratio -. !best) <= eps && !leave >= 0 && basis.(r) < basis.(!leave))
            then begin
              best := ratio;
              leave := r
            end
          end
        done;
        if !leave < 0 then begin
          ok := false;
          continue := false
        end
        else pivot !leave !enter
      end
    done;
    !ok
  in
  if not (run rhs) then Infeasible
  else if obj.(rhs) < -.eps *. float_of_int (m + 1) *. 10.0 then Infeasible
  else begin
    (* Drive remaining artificial variables out of the basis if possible. *)
    for r = 0 to m - 1 do
      if basis.(r) >= n + m then begin
        let found = ref (-1) in
        for j = 0 to n + m - 1 do
          if !found < 0 && abs_float t.(r).(j) > eps then found := j
        done;
        if !found >= 0 then pivot r !found
      end
    done;
    (* Phase 2: the real objective, expressed over the current basis. *)
    for j = 0 to ncols_t - 1 do
      obj.(j) <- 0.0
    done;
    for j = 0 to n - 1 do
      obj.(j) <- p.objective.(j)
    done;
    for r = 0 to m - 1 do
      if basis.(r) < n then begin
        let c = p.objective.(basis.(r)) in
        if abs_float c > 0.0 then
          for j = 0 to ncols_t - 1 do
            obj.(j) <- obj.(j) -. (c *. t.(r).(j))
          done
      end
    done;
    (* artificial columns are forbidden in phase 2 *)
    if not (run (n + m)) then Unbounded
    else begin
      let x = Array.make n 0.0 in
      for r = 0 to m - 1 do
        if basis.(r) < n then x.(basis.(r)) <- t.(r).(rhs)
      done;
      let value = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x.(i)) p.objective) in
      Optimal { value; solution = x }
    end
  end

let validate_problem p =
  let module C = Invariant.Collector in
  let c = C.create "Lp.Simplex" in
  C.check c (p.ncols >= 0) ~invariant:"column-count" "ncols = %d is negative" p.ncols;
  C.check c
    (Array.length p.objective = p.ncols)
    ~invariant:"objective-length" "objective has length %d, expected %d"
    (Array.length p.objective) p.ncols;
  C.check c
    (Array.length p.upper = p.ncols)
    ~invariant:"upper-length" "upper bounds have length %d, expected %d" (Array.length p.upper)
    p.ncols;
  let finite x = Float.is_finite x in
  Array.iteri
    (fun i x ->
      C.check c (finite x) ~invariant:"objective-finite" "objective coefficient %d is %f" i x)
    p.objective;
  Array.iteri
    (fun i u ->
      match u with
      | None -> ()
      | Some u ->
          C.check c
            (finite u && u >= 0.0)
            ~invariant:"upper-bounds" "upper bound %d is %f (must be finite, ≥ 0)" i u)
    p.upper;
  List.iteri
    (fun r (a, b) ->
      C.check c
        (Array.length a = p.ncols)
        ~invariant:"row-length" "row %d has length %d, expected %d" r (Array.length a) p.ncols;
      C.check c (finite b) ~invariant:"row-finite" "row %d has right-hand side %f" r b;
      Array.iteri
        (fun j x ->
          C.check c (finite x) ~invariant:"row-finite" "row %d, column %d is %f" r j x)
        a)
    p.rows;
  C.result c

(* Feasibility of a claimed optimal tableau solution, up to [tol]. *)
let validate_solution ?(tol = 1e-6) p ~value ~solution =
  let module C = Invariant.Collector in
  let c = C.create "Lp.Simplex" in
  C.check c
    (Array.length solution = p.ncols)
    ~invariant:"solution-length" "solution has length %d, expected %d" (Array.length solution)
    p.ncols;
  if Array.length solution = p.ncols then begin
    Array.iteri
      (fun i x ->
        C.check c (x >= -.tol) ~invariant:"nonnegativity" "x_%d = %f < 0" i x;
        match p.upper.(i) with
        | Some u -> C.check c (x <= u +. tol) ~invariant:"upper-bounds" "x_%d = %f > %f" i x u
        | None -> ())
      solution;
    List.iteri
      (fun r (a, b) ->
        let lhs = ref 0.0 in
        Array.iteri (fun j x -> lhs := !lhs +. (x *. solution.(j))) a;
        C.check c
          (!lhs >= b -. tol)
          ~invariant:"row-feasibility" "row %d: a·x = %f < b = %f" r !lhs b)
      p.rows;
    let obj = ref 0.0 in
    Array.iteri (fun j x -> obj := !obj +. (p.objective.(j) *. x)) solution;
    C.check c
      (abs_float (!obj -. value) <= tol *. (1.0 +. abs_float value))
      ~invariant:"objective-value" "c·x = %f but the solver claims %f" !obj value
  end;
  C.result c

let lp_relaxation_of_cover ~nvars ~weights ~sets =
  {
    ncols = nvars;
    objective = Array.copy weights;
    rows =
      List.map
        (fun set ->
          let a = Array.make nvars 0.0 in
          List.iter (fun i -> a.(i) <- 1.0) set;
          (a, 1.0))
        sets;
    upper = Array.make nvars (Some 1.0);
  }
