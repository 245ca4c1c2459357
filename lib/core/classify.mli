(** The complexity classifier: Figure 1 of the paper as a decision procedure.

    Given a regular language L, decide whether RES(L) is known to be in
    PTIME, known to be NP-hard, or unclassified by the paper's results. All
    classification happens on [reduce(L)] (Section 2: Q_L = Q_{reduce(L)}).
    Every NP-hard verdict carries a machine-checkable certificate. *)

type ptime_reason =
  | Trivial_empty
      (** L = ∅: the query is never satisfied, resilience is always 0 *)
  | Trivial_eps  (** ε ∈ L: the query is always satisfied, resilience is +∞ *)
  | Local  (** Theorem 3.3: MinCut via RO-εNFA *)
  | Bipartite_chain  (** Proposition 7.5: MinCut with word reversal *)
  | Submodular of Submod_solver.shape  (** Proposition 7.7 *)

type hard_reason =
  | Four_legged of char * Automata.Word.t * Automata.Word.t * Automata.Word.t * Automata.Word.t
      (** Theorem 5.5: body x and legs (α, β, γ, δ) with αxβ, γxδ ∈ reduce(L)
          but αxδ ∉ reduce(L), all legs non-empty *)
  | Finite_repeated_letter of Automata.Word.t
      (** Theorem 6.1: a word of the finite reduced language with a repeated
          letter *)
  | Non_star_free
      (** Lemma 5.6: reduced non-star-free regular languages are four-legged *)
  | Neutral_dichotomy of char
      (** Proposition 5.7: L has this neutral letter and reduce(L) is not
          local *)
  | Known_gadget of string
      (** Propositions 7.6 and 7.8: equal, up to letter renaming and
          mirroring, to ab|bc|ca, abcd|be|ef or abcd|bef *)

type verdict =
  | PTime of ptime_reason
  | NPHard of hard_reason
  | Unclassified of string
      (** not covered by the paper's results; the string summarizes which
          tests were inconclusive *)

type t = {
  verdict : verdict;
  reduced_words : Automata.Word.t list option;
      (** explicit reduce(L) when finite *)
  reduced : Automata.Nfa.t;  (** automaton for reduce(L) *)
}

val classify : ?four_legged_bound:int -> Automata.Nfa.t -> t
(** Runs the full decision procedure. [four_legged_bound] caps the length of
    the words examined by the four-legged witness search for infinite
    languages (default: [max 8 (2 × minimal DFA size + 2)]). *)

val classify_regex : ?four_legged_bound:int -> string -> t
(** Convenience: parse then classify. *)

val verdict_summary : verdict -> string
(** One-line rendering, e.g. ["PTIME (local, Thm 3.3)"]. *)

val same_up_to_renaming_and_mirror : Automata.Word.t list -> Automata.Word.t list -> bool
(** Do two finite languages coincide up to a letter bijection, possibly
    composing with the mirror operation? Both preserve resilience complexity
    (renaming trivially; mirror by Proposition E.1). *)
