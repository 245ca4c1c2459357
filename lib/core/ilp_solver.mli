(** The ILP baseline for resilience (the approach of Makhija & Gatterbauer,
    reference [23] of the paper): formulate resilience as a weighted
    hitting-set integer program over the hypergraph of matches and solve it
    by LP-based branch and bound. Also exposes the LP relaxation value,
    whose gap to the ILP optimum is the object studied in that line of
    work.

    Every entry point takes an optional {!Budget.t} (default
    {!Budget.unlimited}): match enumeration, simplex pivots and
    branch-and-bound nodes all tick it, and the materialized cover matrix is
    charged against its memory cap.
    All may raise {!Budget.Exhausted}. *)

val instance_of :
  ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> (Lp.Ilp.instance * int array, string) result
(** The hitting-set ILP of a resilience instance, together with the fact id
    of each ILP variable. Requires enumerable matches (finite language or
    acyclic database); [Error] otherwise or when ε ∈ L. *)

val solve :
  ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t * int list, string) result
(** Exact resilience via ILP, with a witness contingency set. *)

val solve_with_covers :
  ?budget:Budget.t ->
  Graphdb.Db.t ->
  Automata.Nfa.t ->
  (Cert.Value.t * int list * int list list, string) result
(** {!solve} additionally returning the cover matrix as fact-id sets (one
    per match) — the evidence a {!Cert.Certificate.Bounds} certificate
    ships so an independent checker can re-verify hitting-set coverage. *)

val lp_relaxation : ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> (float, string) result
(** The LP-relaxation lower bound on resilience. *)

val lp_dual_bound :
  ?budget:Budget.t ->
  Graphdb.Db.t ->
  Automata.Nfa.t ->
  (float * float list * int list list, string) result
(** A feasible dual vector for the covering LP: [(bound, y, covers)] with
    [bound = Σ y]. By weak duality every hitting set costs at least
    [bound], so [ceil (bound - ε)] is a certified integral lower bound —
    and unlike {!lp_relaxation}'s primal value, the vector [y] is
    portable evidence an independent checker can re-verify. At the
    optimum the two bounds coincide (strong duality); feasibility alone
    is enough for soundness if the simplex stops early. *)
