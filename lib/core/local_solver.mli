(** Resilience for local languages via MinCut (Theorem 3.3).

    Given an εNFA recognizing a local language L and a bag database D, build
    a read-once εNFA A for L (Lemma 3.8), then the product network N_{D,A}:
    one finite-capacity edge per fact (capacity = multiplicity), +∞ edges
    for ε-transitions and source/target wiring. Minimum cuts of N_{D,A}
    correspond exactly to minimum contingency sets. Runs in
    Õ(|A| × |D| × |Σ|). *)

type network = {
  net : Flow.Network.t;
  source : int;
  sink : int;
  fact_edge : (int * int) list;  (** (network edge id, fact id) for fact edges *)
}

val build_network : Graphdb.Db.t -> ro:Automata.Nfa.t -> network
(** The product network N_{D,A} for a read-once εNFA [ro].
    @raise Invalid_argument if [ro] is not read-once. *)

val cut_facts : Flow.Network.t -> fact_edge:(int * int) list -> Flow.Network.cut -> int list
(** The fact ids of the fact edges among a cut's edges, in the cut's
    order; [fact_edge] pairs (network edge id, fact id). *)

val solve_ro : Graphdb.Db.t -> ro:Automata.Nfa.t -> Cert.Value.t * int list
(** Resilience computed on the product network of a read-once εNFA, with a
    witness contingency set. Handles ε ∈ L (infinite resilience). *)

val solve_ro_certified :
  Graphdb.Db.t -> ro:Automata.Nfa.t -> Cert.Value.t * int list * Cert.Certificate.t
(** Like {!solve_ro}, additionally serializing the weak-duality evidence
    (network + flow + cut) into a portable {!Cert.Certificate.Cut} — or a
    [Trivial] certificate on the degenerate paths. The uncertified
    {!solve_ro} stays separate because the submodular solver's oracle
    calls it in a hot loop. *)

val solve : Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t * int list, string) result
(** Full pipeline of Theorem 3.3: check the language is local
    (Proposition 3.5), convert to an RO-εNFA (Lemma B.4) and solve.
    [Error _] when the language is not local. *)

val solve_certified :
  Graphdb.Db.t -> Automata.Nfa.t -> (Cert.Value.t * int list * Cert.Certificate.t, string) result
(** {!solve} with the portable certificate. *)
