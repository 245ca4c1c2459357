(** One-stop resilience solver.

    Classifies the language (Figure 1) and dispatches to the best algorithm:
    the Theorem 3.3 MinCut solver for local languages, the Proposition 7.5
    construction for bipartite chain languages, submodular minimization for
    the Proposition 7.7 family, and exact branch and bound otherwise (the
    problem is then NP-hard or unclassified).

    Bag semantics throughout: fact multiplicities are removal costs; a set
    database is simply one with all multiplicities 1 (RES_set = RES_bag on
    it, cf. Section 2). *)

type algorithm =
  | Alg_trivial  (** empty language or ε ∈ L *)
  | Alg_local_mincut  (** Theorem 3.3 *)
  | Alg_bcl_mincut  (** Proposition 7.5 *)
  | Alg_submodular  (** Proposition 7.7 *)
  | Alg_exact_bnb  (** witness-branching branch and bound (exponential) *)
  | Alg_ilp  (** hitting-set ILP baseline (used by {!solve_bounded}) *)

val algorithm_name : algorithm -> string

type result = {
  value : Cert.Value.t;
  witness : int list option;
      (** a minimum contingency set (fact ids), when the algorithm produces
          one; submodular minimization reports only the value *)
  algorithm : algorithm;
  classification : Classify.t;
  cert : Cert.Certificate.t option;
      (** portable evidence for the answer: a weak-duality [Cut] for the
          MinCut algorithms, a hitting-set [Bounds] for branch and bound /
          ILP, [Trivial] for the degenerate cases and [Opaque] for
          submodular minimization (which has no independent certificate).
          Re-checkable offline by [rpq_certcheck] without the solver. *)
}

val solve : ?classification:Classify.t -> Graphdb.Db.t -> Automata.Nfa.t -> result
(** Computes the resilience of [Q_L] on the database. Pass [classification]
    to reuse a previously computed verdict (it must be for the same
    language). *)

val resilience : Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t
(** Just the value. *)

(** {1 Anytime solving under a budget} *)

type outcome =
  | Exact of result  (** the budget sufficed; same answer as {!solve} *)
  | Bounded of {
      lower : Cert.Value.t;  (** certified lower bound (LP relaxation / satisfiability) *)
      upper : Cert.Value.t;  (** certified upper bound (incumbent or greedy hitting set) *)
      upper_witness : int list option;
          (** a contingency set achieving [upper] — removing these facts
              falsifies the query (re-verified under [RPQ_CHECK=paranoid]) *)
      spent : Budget.spent;  (** work actually performed *)
      reason : Budget.exhaustion;  (** which limit was hit first *)
      cert : Cert.Certificate.t option;
          (** a [Bounds] certificate: the hitting-set witness behind [upper]
              plus, when the dual LP solved, the feasible dual vector that
              certifies [lower] by weak duality *)
    }

val solve_bounded :
  ?classification:Classify.t -> ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> outcome
(** {!solve} as an anytime algorithm. Without a budget this is exactly
    [Exact (solve d a)]. With one, the hard cases run a degradation chain —
    exact branch and bound on a slice of the budget, then the hitting-set
    ILP on a slice of the remainder, then certified LP-relaxation /
    greedy-hitting-set bounds — and return [Bounded] instead of raising
    when every exact stage exhausts. [Bounded] always satisfies
    [lower <= upper]. Polynomial (MinCut) cases ignore the budget;
    submodular minimization ticks it per oracle call and degrades to
    bounds like the hard cases. Never raises {!Budget.Exhausted}. *)
