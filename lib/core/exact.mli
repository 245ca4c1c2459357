(** Exact resilience solvers that work for {e every} regular language
    (exponential worst case; resilience is NP-hard in general, Section 4).

    These are the reference implementations used to validate the paper's
    polynomial algorithms, and the baselines of the hardness-shape
    benchmarks. All solvers handle bag semantics (fact multiplicities are
    removal costs); set semantics is the all-multiplicities-1 case.

    Every solver takes an optional {!Budget.t} (default
    {!Budget.unlimited}); exhaustion raises {!Budget.Exhausted} except in
    {!branch_and_bound_anytime}, which converts it to a truncated outcome
    carrying the best incumbent. *)

val bruteforce : ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t
(** Enumerates all subsets of live facts (≤ 22 facts), ticking the budget
    once per subset.
    @raise Invalid_argument on larger databases.
    @raise Budget.Exhausted when the budget runs out. *)

val branch_and_bound : ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t * int list
(** Witness-branching: while some L-walk exists, pick a shortest one
    ({!Graphdb.Eval.shortest_witness}'s walk, on one product compiled per
    call) and branch on which of its facts enters the contingency set.
    Memoized on the content of the removed-fact set: a key carries the
    set's {!Hypergraph.Iset.hash}, updated in O(1) per branch, and two keys
    are equal only if their hashes and their contents are, since distinct
    sets can share a hash. The memo table is bounded by the budget's memory cap
    (so pathological instances cannot OOM even with no deadline set — once
    the cap is reached the search continues unmemoized). Exact for every
    regular language and database. Returns the value and a witness
    contingency set (empty for [Infinite]).
    @raise Budget.Exhausted when the budget runs out. *)

type anytime =
  | Complete of Cert.Value.t * int list  (** exact value and witness *)
  | Truncated of {
      incumbent : (int * int list) option;
          (** best contingency set found so far — a certified {e upper}
              bound with its witness, when any was found *)
      reason : Budget.exhaustion;
    }

val branch_and_bound_anytime : budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> anytime
(** {!branch_and_bound} as an anytime algorithm: never raises on
    exhaustion, returning the incumbent instead. *)

val hitting_set : ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t * int list
(** Via the hypergraph of matches (Definition 4.7) and exact weighted
    minimum hitting set. Requires the matches to be enumerable: finite
    language or acyclic database (see {!Graphdb.Eval.all_matches}).
    @raise Invalid_argument otherwise.
    @raise Budget.Exhausted when the budget runs out. *)
