(* Tests for the simplex / ILP substrate and the ILP resilience baseline. *)
open Lp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let approx a b = abs_float (a -. b) < 1e-6

(* ---- simplex ---- *)

let test_simplex_basic () =
  (* min x + y  s.t. x + y >= 1, x >= 0.3: optimum 1 *)
  let p =
    {
      Simplex.ncols = 2;
      objective = [| 1.0; 1.0 |];
      rows = [ ([| 1.0; 1.0 |], 1.0); ([| 1.0; 0.0 |], 0.3) ];
      upper = [| None; None |];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; solution } ->
      check "value 1" true (approx value 1.0);
      check "x >= 0.3" true (solution.(0) >= 0.3 -. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_upper_bounds () =
  (* min x + 2y  s.t. x + y >= 3, x <= 1: forces y >= 2: optimum 1 + 4 = 5 *)
  let p =
    {
      Simplex.ncols = 2;
      objective = [| 1.0; 2.0 |];
      rows = [ ([| 1.0; 1.0 |], 3.0) ];
      upper = [| Some 1.0; None |];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; _ } -> check "value 5" true (approx value 5.0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  (* x <= 1 (via upper) and x >= 2 *)
  let p =
    {
      Simplex.ncols = 1;
      objective = [| 1.0 |];
      rows = [ ([| 1.0 |], 2.0) ];
      upper = [| Some 1.0 |];
    }
  in
  check "infeasible" true (Simplex.solve p = Simplex.Infeasible)

let test_simplex_fractional_cover () =
  (* LP relaxation of the odd cycle cover {1,2},{2,3},{1,3}: optimum 1.5 *)
  let p =
    Simplex.lp_relaxation_of_cover ~nvars:3 ~weights:[| 1.0; 1.0; 1.0 |]
      ~sets:[ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; _ } -> check "value 1.5" true (approx value 1.5)
  | _ -> Alcotest.fail "expected optimal"

(* ---- simplex differential ---- *)

(* [Simplex.solve] as it was before pivots touched only the pivot row's
   nonzero columns and phase 1 summed only nonzeros, copied verbatim as the
   oracle (with the pivot counter and tolerance it reads). The two must take
   the same pivots and return the same outcome, the same [value] and the
   same [solution], compared bit for bit: a skipped [x -. f *. 0.0] could
   keep a -0.0 where the dense update wrote +0.0, and sign-flipped rows
   hold -0.0s whose solution entries [lp_dual_bound] ships in
   certificates. *)
module Oracle = struct
  open Simplex

let pivots = Obs.Metrics.counter "simplex.pivots"

let eps = 1e-9

(* Standard form: upper bounds become extra ≥ rows (-x_i ≥ -u_i); every row
   a·x ≥ b with b possibly negative is normalized to b ≥ 0 by sign flip into
   ≤ form... We instead build the classic two-phase tableau for
     min c·x  s.t.  A x - s = b,  x, s ≥ 0
   after flipping rows so that b ≥ 0. *)
let solve ?(fuel = fun () -> ()) (p : problem) =
  let base_rows =
    List.map (fun (a, b) -> (Array.copy a, b)) p.rows
    @ List.concat
        (List.init p.ncols (fun i ->
             match p.upper.(i) with
             | None -> []
             | Some u ->
                 let a = Array.make p.ncols 0.0 in
                 a.(i) <- -1.0;
                 [ (a, -.u) ]))
  in
  let m = List.length base_rows in
  let n = p.ncols in
  (* Columns: n structural + m surplus/slack + m artificial + 1 rhs. *)
  let ncols_t = n + m + m + 1 in
  let t = Array.make_matrix (m + 1) ncols_t 0.0 in
  let basis = Array.make m 0 in
  List.iteri
    (fun r (a, b) ->
      let sign = if b < 0.0 then -1.0 else 1.0 in
      for j = 0 to n - 1 do
        t.(r).(j) <- sign *. a.(j)
      done;
      (* a·x ≥ b  ⇒  a·x - s = b (s ≥ 0); flipped rows become ≤ with slack. *)
      t.(r).(n + r) <- sign *. -1.0;
      t.(r).(n + m + r) <- 1.0;
      t.(r).(ncols_t - 1) <- sign *. b;
      basis.(r) <- n + m + r)
    base_rows;
  let pivot row col =
    let piv = t.(row).(col) in
    for j = 0 to ncols_t - 1 do
      t.(row).(j) <- t.(row).(j) /. piv
    done;
    for r = 0 to m do
      if r <> row && abs_float t.(r).(col) > 0.0 then begin
        let f = t.(r).(col) in
        for j = 0 to ncols_t - 1 do
          t.(r).(j) <- t.(r).(j) -. (f *. t.(row).(j))
        done
      end
    done;
    if row < m then basis.(row) <- col
  in
  (* Run simplex on the objective stored in row m, over allowed columns;
     Bland's rule for anti-cycling. Returns false on unboundedness. *)
  let run allowed =
    let continue = ref true and ok = ref true in
    while !continue do
      fuel ();
      Obs.Metrics.incr pivots;
      (* entering column: smallest index with negative reduced cost *)
      let enter = ref (-1) in
      (try
         for j = 0 to ncols_t - 2 do
           if allowed j && t.(m).(j) < -.eps then begin
             enter := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !enter < 0 then continue := false
      else begin
        (* leaving row: min ratio, Bland tie-break on basis index *)
        let leave = ref (-1) and best = ref infinity in
        for r = 0 to m - 1 do
          if t.(r).(!enter) > eps then begin
            let ratio = t.(r).(ncols_t - 1) /. t.(r).(!enter) in
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
  (* Phase 1: minimize the sum of artificials. *)
  for j = 0 to ncols_t - 1 do
    t.(m).(j) <- 0.0
  done;
  for r = 0 to m - 1 do
    for j = 0 to ncols_t - 1 do
      t.(m).(j) <- t.(m).(j) -. t.(r).(j)
    done
  done;
  (* artificial columns have coefficient 1 in the phase-1 objective; after
     subtracting basic rows their reduced costs are 0, structural columns
     get the negated row sums — which is what the loop above computed, except
     we must zero the artificial columns' costs properly: *)
  for r = 0 to m - 1 do
    t.(m).(n + m + r) <- 0.0
  done;
  if not (run (fun j -> j < ncols_t - 1)) then Infeasible
  else if t.(m).(ncols_t - 1) < -.eps *. float_of_int (m + 1) *. 10.0 then Infeasible
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
      t.(m).(j) <- 0.0
    done;
    for j = 0 to n - 1 do
      t.(m).(j) <- p.objective.(j)
    done;
    for r = 0 to m - 1 do
      if basis.(r) < n then begin
        let c = p.objective.(basis.(r)) in
        if abs_float c > 0.0 then
          for j = 0 to ncols_t - 1 do
            t.(m).(j) <- t.(m).(j) -. (c *. t.(r).(j))
          done
      end
    done;
    (* artificial columns are forbidden in phase 2 *)
    if not (run (fun j -> j < n + m)) then Unbounded
    else begin
      let x = Array.make n 0.0 in
      for r = 0 to m - 1 do
        if basis.(r) < n then x.(basis.(r)) <- t.(r).(ncols_t - 1)
      done;
      let value = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x.(i)) p.objective) in
      Optimal { value; solution = x }
    end
  end
end

let bits x = Int64.bits_of_float x

let same_outcome (a : Simplex.outcome) (b : Simplex.outcome) =
  match (a, b) with
  | Simplex.Optimal x, Simplex.Optimal y ->
      bits x.value = bits y.value
      && Array.length x.solution = Array.length y.solution
      && Array.for_all2 (fun u v -> bits u = bits v) x.solution y.solution
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> true
  | _ -> false

(* Both solvers on [p], each with its own fuel count. *)
let agrees_with_oracle p =
  let count solve =
    let calls = ref 0 in
    let outcome = solve ~fuel:(fun () -> incr calls) p in
    (outcome, !calls)
  in
  let got, got_calls = count (fun ~fuel p -> Simplex.solve ~fuel p) in
  let want, want_calls = count (fun ~fuel p -> Oracle.solve ~fuel p) in
  got_calls = want_calls && same_outcome got want

let print_lp (p : Simplex.problem) =
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") a)) in
  Printf.sprintf "ncols=%d c=[%s] upper=[%s] rows=[%s]" p.Simplex.ncols (floats p.Simplex.objective)
    (String.concat ","
       (Array.to_list
          (Array.map (function None -> "-" | Some u -> Printf.sprintf "%g" u) p.Simplex.upper)))
    (String.concat " | "
       (List.map (fun (a, b) -> Printf.sprintf "%s >= %g" (floats a) b) p.Simplex.rows))

(* The relaxation [Ilp.solve] hands the simplex at a node: a weighted
   cover with x <= 1, some variables fixed to 0 by an upper bound of 0 and
   some to 1 by an extra unit row. *)
let gen_ilp_node_lp =
  QCheck.Gen.(
    let* n = int_range 1 16 in
    let* m = int_range 0 20 in
    let* covers = list_repeat m (list_size (int_range 1 4) (int_bound (n - 1))) in
    let* weights = array_repeat n (int_range 1 5) in
    let* fixed0 = list_size (int_bound 3) (int_bound (n - 1)) in
    let* fixed1 = list_size (int_bound 3) (int_bound (n - 1)) in
    let base =
      Simplex.lp_relaxation_of_cover ~nvars:n ~weights:(Array.map float_of_int weights)
        ~sets:covers
    in
    let upper = Array.copy base.Simplex.upper in
    List.iter (fun i -> upper.(i) <- Some 0.0) fixed0;
    let unit i =
      let a = Array.make n 0.0 in
      a.(i) <- 1.0;
      (a, 1.0)
    in
    return { base with Simplex.upper; rows = base.Simplex.rows @ List.map unit fixed1 })

(* The dual [Ilp_solver.lp_dual_bound] solves: maximize the sum of y over
   y >= 0 with, per variable, -(sum of y over the covers holding it) >=
   -weight. Every right-hand side is negative, so every row is
   sign-flipped. *)
let gen_dual_lp =
  QCheck.Gen.(
    let* n = int_range 1 16 in
    let* m = int_range 1 20 in
    let* covers = list_repeat m (list_size (int_range 1 4) (int_bound (n - 1))) in
    let* weights = array_repeat n (int_range 1 5) in
    let rows =
      List.init n (fun i ->
          let row = Array.make m 0.0 in
          List.iteri (fun j cover -> if List.mem i cover then row.(j) <- -1.0) covers;
          (row, -.float_of_int weights.(i)))
    in
    return
      {
        Simplex.ncols = m;
        objective = Array.make m (-1.0);
        rows;
        upper = Array.make m None;
      })

let prop_simplex_ilp_node_oracle =
  QCheck.Test.make ~name:"ILP node LPs: same pivots and bits as the dense oracle" ~count:500
    (QCheck.make ~print:print_lp gen_ilp_node_lp)
    agrees_with_oracle

let prop_simplex_dual_oracle =
  QCheck.Test.make ~name:"dual LPs: same pivots and bits as the dense oracle" ~count:500
    (QCheck.make ~print:print_lp gen_dual_lp)
    agrees_with_oracle

(* ---- ILP ---- *)

let test_ilp_triangle () =
  (* integral optimum of the triangle cover is 2 (vs LP bound 1.5) *)
  let inst =
    { Ilp.nvars = 3; weights = [| 1; 1; 1 |]; covers = [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] }
  in
  match Ilp.solve inst with
  | Ok sol ->
      check_int "value 2" 2 sol.Ilp.value;
      check "lp bound 1.5" true (approx sol.Ilp.lp_bound 1.5);
      (* assignment covers *)
      check "covers" true
        (List.for_all
           (fun s -> List.exists (fun i -> sol.Ilp.assignment.(i)) s)
           inst.Ilp.covers)
  | Error e -> Alcotest.fail e

let test_ilp_weighted () =
  (* covering {0,1} with weights 5,1: pick 1 *)
  let inst = { Ilp.nvars = 2; weights = [| 5; 1 |]; covers = [ [ 0; 1 ] ] } in
  match Ilp.solve inst with
  | Ok sol ->
      check_int "value 1" 1 sol.Ilp.value;
      check "picked cheap" true (sol.Ilp.assignment.(1) && not sol.Ilp.assignment.(0))
  | Error e -> Alcotest.fail e

let test_ilp_infeasible () =
  check "empty cover" true
    (Result.is_error (Ilp.solve { Ilp.nvars = 1; weights = [| 1 |]; covers = [ [] ] }))

(* ---- properties ---- *)

let qcheck = QCheck_alcotest.to_alcotest

let gen_cover =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* m = int_range 0 8 in
    let* covers = list_repeat m (list_size (int_range 1 3) (int_bound (n - 1))) in
    let* weights = array_repeat n (int_range 1 5) in
    return { Ilp.nvars = n; weights; covers })

let arb_cover =
  QCheck.make
    ~print:(fun i ->
      Printf.sprintf "n=%d w=[%s] covers=[%s]" i.Ilp.nvars
        (String.concat ";" (Array.to_list (Array.map string_of_int i.Ilp.weights)))
        (String.concat "|"
           (List.map (fun s -> String.concat "," (List.map string_of_int s)) i.Ilp.covers)))
    gen_cover

(* Reference: brute force over assignments. *)
let brute inst =
  let n = inst.Ilp.nvars in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let ok =
      List.for_all (fun s -> List.exists (fun i -> mask land (1 lsl i) <> 0) s) inst.Ilp.covers
    in
    if ok then begin
      let v = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then v := !v + inst.Ilp.weights.(i)
      done;
      if !v < !best then best := !v
    end
  done;
  !best

let prop_ilp_vs_brute =
  QCheck.Test.make ~name:"ILP branch&bound = brute force" ~count:200 arb_cover (fun inst ->
      match Ilp.solve inst with Ok sol -> sol.Ilp.value = brute inst | Error _ -> false)

let prop_lp_lower_bound =
  QCheck.Test.make ~name:"LP relaxation lower-bounds the ILP optimum" ~count:200 arb_cover
    (fun inst ->
      match (Ilp.solve inst, Ilp.lp_bound inst) with
      | Ok sol, Ok lp -> lp <= float_of_int sol.Ilp.value +. 1e-6
      | _ -> false)

(* ---- the ILP resilience baseline ---- *)

let lang = Automata.Lang.of_string

let test_ilp_resilience () =
  let d =
    Graphdb.Db.make ~nnodes:5
      ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3); (3, 'a', 4) ]
  in
  (match Resilience.Ilp_solver.solve d (lang "aa") with
  | Ok (v, w) ->
      check "value 2" true (Cert.Value.equal v (Cert.Value.Finite 2));
      (* witness is a real contingency set *)
      let d' = Graphdb.Db.restrict d ~removed:(fun id -> List.mem id w) in
      check "witness" true (not (Graphdb.Eval.satisfies d' (lang "aa")))
  | Error e -> Alcotest.fail e);
  (* ε ∈ L *)
  match Resilience.Ilp_solver.solve d (lang "a*") with
  | Ok (v, _) -> check "infinite" true (v = Cert.Value.Infinite)
  | Error e -> Alcotest.fail e

let arb_db =
  QCheck.make
    ~print:(fun (d : Graphdb.Db.t) -> Format.asprintf "%a" Graphdb.Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 100000 in
      let* nnodes = int_range 2 5 in
      let* nfacts = int_range 1 8 in
      return
        (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet:[ 'a'; 'b'; 'c' ] ~max_mult:3 ~seed ()))

let prop_ilp_resilience_vs_exact =
  let langs = [ "aa"; "ab|bc"; "abc"; "ab|bc|ca" ] in
  QCheck.Test.make ~name:"ILP resilience = branch&bound resilience" ~count:120
    (QCheck.pair arb_db (QCheck.oneofl langs))
    (fun (d, s) ->
      let l = lang s in
      match Resilience.Ilp_solver.solve d l with
      | Ok (v, _) -> Cert.Value.equal v (fst (Resilience.Exact.branch_and_bound d l))
      | Error _ -> false)

let prop_lp_bound_below_resilience =
  QCheck.Test.make ~name:"LP relaxation <= resilience" ~count:100
    (QCheck.pair arb_db (QCheck.oneofl [ "aa"; "ab|bc" ]))
    (fun (d, s) ->
      let l = lang s in
      match (Resilience.Ilp_solver.lp_relaxation d l, Resilience.Exact.branch_and_bound d l) with
      | Ok lp, (Cert.Value.Finite v, _) -> lp <= float_of_int v +. 1e-6
      | _ -> false)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "upper bounds" `Quick test_simplex_upper_bounds;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "fractional cover" `Quick test_simplex_fractional_cover;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "triangle" `Quick test_ilp_triangle;
          Alcotest.test_case "weighted" `Quick test_ilp_weighted;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
        ] );
      ( "resilience baseline",
        [ Alcotest.test_case "aa path" `Quick test_ilp_resilience ] );
      ( "properties",
        List.map qcheck
          [
            prop_ilp_vs_brute;
            prop_lp_lower_bound;
            prop_ilp_resilience_vs_exact;
            prop_lp_bound_below_resilience;
            prop_simplex_ilp_node_oracle;
            prop_simplex_dual_oracle;
          ] );
    ]
