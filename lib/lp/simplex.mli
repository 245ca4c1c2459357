(** A small two-phase simplex solver for covering-style linear programs:

    minimize c·x subject to A x ≥ b, 0 ≤ x (≤ optional upper bounds).

    This is the substrate for the ILP baseline solver (the approach of
    Makhija & Gatterbauer, cited as [23] by the paper, solves resilience
    with ILP and studies its LP relaxation). Dense tableau with Bland's
    rule; a pivot updates only the columns where the pivot row is nonzero,
    plus the right-hand side, which takes exactly the pivots and yields
    bit for bit the values and solutions of a dense update. Adequate for
    the small/medium instances of the test and bench suites, not a
    production LP code. *)

type problem = {
  ncols : int;  (** number of variables *)
  objective : float array;  (** minimized; length ncols *)
  rows : (float array * float) list;  (** each (a, b) encodes a·x ≥ b *)
  upper : float option array;  (** optional upper bounds per variable *)
}

type outcome =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded

val solve : ?fuel:(unit -> unit) -> problem -> outcome
(** [fuel] is called once per simplex iteration (pivot selection); it may
    raise — e.g. [Resilience.Budget.Exhausted] — to abort an over-budget
    solve. The exception propagates to the caller unchanged. *)

val lp_relaxation_of_cover :
  nvars:int -> weights:float array -> sets:int list list -> problem
(** The LP relaxation of a weighted set-cover/hitting-set instance: minimize
    Σ wᵢxᵢ with Σ_{i∈S} xᵢ ≥ 1 for each set S and 0 ≤ x ≤ 1. *)

val validate_problem : problem -> (unit, Invariant.violation list) result
(** Machine-checks the tableau preconditions: consistent dimensions
    (objective, rows, upper bounds all of length [ncols]) and finite
    coefficients, with finite non-negative upper bounds. *)

val validate_solution :
  ?tol:float -> problem -> value:float -> solution:float array ->
  (unit, Invariant.violation list) result
(** Feasibility certificate for an [Optimal] outcome, up to [tol]
    (default [1e-6]): the solution is within bounds, satisfies every row
    [a·x ≥ b], and its objective matches the claimed value. (Optimality
    itself is certified at the integer level by the ILP solver's
    cross-checks, not here.) *)
