(** Finer-grained analyses on top of resilience: enumeration of all minimum
    contingency sets, and the {e responsibility} of individual facts (the
    companion notion from Freire, Gatterbauer, Immerman & Meliou, cited as
    [12] by the paper).

    All functions require enumerable matches (finite language or acyclic
    database) and are exponential in the worst case — resilience analysis
    tools for small and medium instances. *)

val all_minimum_contingency_sets :
  Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t * Hypergraph.Iset.t list
(** Every minimum-cost contingency set (as fact-id sets). [Infinite] (with
    an empty list) when ε ∈ L. *)

val count_minimum_contingency_sets : Graphdb.Db.t -> Automata.Nfa.t -> int
(** Number of distinct minimum contingency sets (0 when resilience is
    infinite). *)

val responsibility : Graphdb.Db.t -> Automata.Nfa.t -> int -> Cert.Value.t
(** [responsibility d l f]: the minimum cost of a set Γ of facts with
    [f ∉ Γ] such that [f] is counterfactual after removing Γ — i.e. the
    query still holds on [D ∖ Γ] but fails on [D ∖ (Γ ∪ {f})]. [Finite 0]
    means removing [f] alone changes the answer; [Infinite] means [f] is
    never counterfactual. The classical responsibility score is
    [1 / (1 + k)] for [Finite k], and 0 for [Infinite]. *)

val responsibility_score : Graphdb.Db.t -> Automata.Nfa.t -> int -> float
(** The [1 / (1 + k)] normalization of {!responsibility}. *)

val most_responsible_facts : Graphdb.Db.t -> Automata.Nfa.t -> (int * float) list
(** All live facts with their responsibility scores, sorted by decreasing
    score (ties by fact id). *)
