(** Resilience via submodular minimization (Proposition 7.7).

    For L = α | aₙ₋₁aₙ₊₁ with α = a₁⋯aₙ all distinct and aₙ₊₁ fresh
    (e.g. [abc|be], [abcd|ce]), resilience equals

    min over Z ⊆ Adom(D) of
      Σ_{v∈Z} |aₙ₋₁(_,v)| + Σ_{v∉Z} |aₙ₊₁(v,_)| + RES_bag(α, D ∖ ⋃_{v∈Z} aₙ(v,_))

    and this objective is submodular in Z (Lemma F.5, via Megiddo's
    multi-terminal flow lemma), so it can be minimized in PTIME. This is the
    paper's only tractable family with no known MinCut reduction. The inner
    RES_bag(α, ·) term is computed by the Theorem 3.3 MinCut solver (a single
    word with distinct letters is a local language). *)

type shape = {
  alpha : Automata.Word.t;  (** the long word a₁⋯aₙ *)
  a_pre : char;  (** aₙ₋₁ *)
  a_new : char;  (** aₙ₊₁ *)
  mirrored : bool;  (** the shape was found on the mirror language (Prop E.1) *)
}

val recognize : Automata.Word.t list -> shape option
(** Matches an explicit finite language against the Prop 7.7 shape, also up
    to mirroring. *)

val recognize_nfa : Automata.Nfa.t -> shape option

val oracle : Graphdb.Db.t -> shape -> int list * (bool array -> int)
(** The restricted ground set (vertices that are the middle of an actual
    aₙ₋₁aₙ₊₁ match) and the submodular objective over it; used by tests to
    check submodularity directly. *)

val solve : ?budget:Budget.t -> Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t, string) result
(** Full pipeline: recognize the shape (possibly mirroring the database) and
    minimize the objective with {!Submodular.Sfm.minimize}. The budget
    (default {!Budget.unlimited}) is ticked once per SFM oracle call; may
    raise {!Budget.Exhausted}. *)
