(** Chain languages and bipartite chain languages (Section 7, Prop 7.5).

    A chain language (Definition 7.1) has no repeated letter inside a word,
    and intermediate letters of a word occur in no other word. Its endpoint
    graph (Definition 7.2) links the first and last letters of each word of
    length ≥ 2; when that graph is bipartite the language is a BCL and
    resilience reduces to MinCut by reversing the words whose endpoints fall
    the "wrong way" across the bipartition. *)

val is_chain : Automata.Word.t list -> bool
(** Definition 7.1 on an explicit finite language. *)

val endpoint_graph : Automata.Word.t list -> (char list * (char * char) list)
(** Vertices (the alphabet letters of the words) and endpoint edges
    {a, b} for words of length ≥ 2 of the form aαb or bαa with a ≠ b.
    A word [aαa] (same endpoints) cannot occur in a chain language of
    length ≥ 2 words since letters cannot repeat. *)

val is_bcl : Automata.Word.t list -> bool

val words_of_chain_nfa : Automata.Nfa.t -> (Automata.Word.t list, string) result
(** Lemma F.2: extracts the explicit word list of a chain language directly
    from an εNFA in O(|Σ|² × |A|), without determinizing — this is what
    gives Proposition 7.5 its combined-complexity bound. Per-state witness
    words are maintained as in Claim F.3; two distinct witnesses reaching
    one state (or a productive cycle) yield [Error], which can only happen
    when the language is not a chain language. A successful extraction is
    always the exact word list (also for non-chain inputs that happen to
    pass). *)

val solve : Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t * int list, string) result
(** Proposition 7.5: resilience of a BCL via the forward/reversed-words
    MinCut construction, with a witness contingency set.
    [Error _] if the language is not a BCL. *)

val solve_certified :
  Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t * int list * Cert.Certificate.t, string) result
(** {!solve} additionally serializing the weak-duality evidence (network,
    flow, cut, forced single-letter facts) into a portable
    {!Cert.Certificate.Cut}. *)
