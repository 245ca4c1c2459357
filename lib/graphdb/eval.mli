(** RPQ evaluation: does the database contain an L-walk (Section 2)?

    Implemented by reachability in the product of the database with an
    ε-free NFA for L (cf. Appendix A, citing Mendelzon & Wood). Also
    provides witness extraction (used by the branch-and-bound solver) and
    exhaustive match enumeration (used by the gadget verifier and the
    hitting-set solver for finite languages). *)

val satisfies : Db.t -> Automata.Nfa.t -> bool
(** [satisfies d a] iff some walk of [d] is labeled by a word of [L(a)].
    If ε ∈ L(a), every database (even empty) satisfies the query. *)

val shortest_witness : Db.t -> Automata.Nfa.t -> int list option
(** A shortest L-walk, as the sequence of its fact ids (the same fact may
    repeat). [Some []] when ε ∈ L(a). Among shortest walks the choice is
    deterministic: breadth-first search from the (node, initial state)
    pairs by node, then in the order of the ε-free automaton's [initial]
    list, expanding a node's out-facts by ascending id and a (state,
    letter)'s successors in reverse {!Automata.Nfa.letter_transitions}
    order; the first final pair dequeued ends the walk. *)

val matches_up_to :
  ?fuel:(unit -> unit) -> Db.t -> Automata.Nfa.t -> max_len:int -> Hypergraph.Iset.t list
(** All distinct {e fact sets} of L-walks of length ≤ [max_len]
    (the hyperedges of the hypergraph of matches, Definition 4.7).
    Exponential; intended for small databases. [fuel] is called once per
    explored product node; it may raise (e.g.
    [Resilience.Budget.Exhausted]) to abort an over-budget enumeration —
    the exception propagates unchanged. *)

val all_matches : ?fuel:(unit -> unit) -> Db.t -> Automata.Nfa.t -> Hypergraph.Iset.t list
(** All match fact-sets, for databases where this is finite and enumerable:
    either the database is acyclic (walks are simple paths) or the language
    is finite (walk length is bounded by the longest word).
    @raise Invalid_argument when neither holds. *)

val match_hypergraph : ?fuel:(unit -> unit) -> Db.t -> Automata.Nfa.t -> Hypergraph.t
(** The hypergraph of matches [H_{L,D}] (vertices = live fact ids), using
    {!all_matches}. *)

(** {1 Compiled product}

    The functions above compile a fresh product per call. A caller that
    evaluates one query on many sub-databases of one database (branch and
    bound) compiles once and masks facts out instead of calling
    {!Db.restrict}. *)

module Product : sig
  type t
  (** The product of a database with the ε-free version of an automaton:
      an int-indexed successor table per (state, letter), the live
      out-facts of every node as CSR (compressed sparse row) arrays in
      fact-id order, the dead-fact mask, and breadth-first search scratch
      reused across evaluations. Evaluation mutates the scratch, so a
      value must not be shared between concurrent evaluations. *)

  val compile : Db.t -> Automata.Nfa.t -> t

  val dead : t -> bool array
  (** The dead-fact mask, indexed by fact id and initially all [false].
      The caller owns it: a fact whose entry is [true] is absent from every
      evaluation until the entry is cleared, so with the mask of [removed]
      each function below answers as its namesake above on
      [Db.restrict d ~removed]. *)

  val satisfies : t -> bool
  val shortest_witness : t -> int list option

  val matches_up_to : ?fuel:(unit -> unit) -> t -> max_len:int -> Hypergraph.Iset.t list
end
