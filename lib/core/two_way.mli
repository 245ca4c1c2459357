(** Two-way RPQs (2RPQs) — the paper's Section 8 notes that resilience for
    them "would require new techniques (these queries are not directional)";
    here we provide evaluation and {e exact} resilience so the problem can at
    least be experimented with.

    Convention: in the query language, a lowercase letter [a] traverses an
    [a]-fact forward and the corresponding uppercase letter [A] traverses an
    [a]-fact {e backward}. E.g. ["aB"] asks for nodes u → v via an a-fact
    followed by a backward b-fact (v ←b— w walked from v to w). A walk may
    traverse the same fact several times, in either direction; a contingency
    set must destroy every accepting two-way walk. *)

val satisfies : Graphdb.Db.t -> Automata.Nfa.t -> bool
(** Is there a two-way L-walk? *)

val shortest_witness : Graphdb.Db.t -> Automata.Nfa.t -> int list option
(** Fact ids of a shortest two-way L-walk (facts may repeat). *)

val matches_up_to : Graphdb.Db.t -> Automata.Nfa.t -> max_len:int -> Hypergraph.Iset.t list
(** Distinct fact sets of two-way L-walks of length at most the bound. *)

val resilience : Graphdb.Db.t -> Automata.Nfa.t -> Cert.Value.t * int list
(** Exact resilience by witness-branching branch and bound (exponential;
    no tractability theory exists yet for 2RPQs). *)
