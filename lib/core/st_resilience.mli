(** Resilience of {e non-Boolean} RPQs with fixed endpoints — the paper's
    Section 8 future-work direction.

    Here the query asks for an L-walk {e from [src] to [dst]}, and resilience
    is the minimum cost of facts to remove so that no such walk remains. We
    reduce to the Boolean problem by guarding the endpoints with fresh
    letters: RES_st(L, D, s, t) = RES(⟨g₁⟩·L·⟨g₂⟩, D + two undeletable guard
    facts), where "undeletable" is modeled by a multiplicity larger than the
    whole database. Locality is preserved by the guarding, so the Theorem 3.3
    MinCut algorithm still applies to local languages; other languages fall
    back to the exact solver. (The paper conjectures more cases become
    tractable with fixed endpoints — e.g. [aa]; here hard languages are
    simply handled exactly.) *)

val satisfies : Graphdb.Db.t -> Automata.Nfa.t -> src:int -> dst:int -> bool
(** Is there an L-walk from [src] to [dst]? (ε ∈ L and [src = dst] counts.) *)

type result = {
  value : Cert.Value.t;
  witness : int list option;
  algorithm : Solver.algorithm;
}

val solve : Graphdb.Db.t -> Automata.Nfa.t -> src:int -> dst:int -> result
(** Fixed-endpoint resilience: MinCut for local languages, exact branch and
    bound otherwise. Witness facts refer to the original database's ids. *)

val resilience : Graphdb.Db.t -> Automata.Nfa.t -> src:int -> dst:int -> Cert.Value.t
